#!/usr/bin/env bash
# Byte-identity check of what the CLI writes, this checkout against a
# base revision.
#
# Extracts BASE into a temporary directory (git archive: nothing is
# registered in .git), builds `fesplit` from it and from this checkout,
# then runs the same command list with each binary, every command in a
# directory of its own, and compares stdout, exit status and every file
# written. stderr (summary lines, timings) and runtime.jsonl (wall-clock
# telemetry) are not part of the contract and are left out. Prints one
# line per differing file, names the command that wrote it, lists below
# a differing text file its first differing lines (at most 20, each cut
# to 200 characters), and exits 1 on any difference.
#
# Usage: scripts/output_diff.sh BASE
#   BASE    any git revision (HEAD compares the checkout with its commit)
#   FULL=1  also runs `study -scale full -seed 42` (~11 s, ~0.5 GB RSS)
set -euo pipefail

base=${1:?usage: scripts/output_diff.sh BASE}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/base.bin" ./cmd/fesplit)
(cd "$root" && go build -o "$work/head.bin" ./cmd/fesplit)

# name|command, one a line; $F is the binary, the working directory the
# command's own.
cmds=(
	'study-seed42|$F study -seed 42 -workers 2 -dir out'
	'study-seed7|$F study -seed 7 -workers 2 -dir out'
	'study-diurnal|$F study -diurnal -clients 10000 -dir out'
	'trace|$F trace -rtt 40 -o t.bin && $F decode t.bin'
	'sweep|$F sweep'
	'sweep-loss|$F sweep -loss 0.03'
	'direct|$F direct'
	'direct-bing|$F direct -service bing'
)
for fig in 3 4 5 6 7 8 9 caching; do
	cmds+=("report-fig$fig|\$F report -fig $fig -csv csv -html report.html")
done
if [ "${FULL:-0}" = 1 ]; then
	cmds+=('study-full|$F study -scale full -seed 42 -workers 2 -dir out')
fi

for side in base head; do
	for c in "${cmds[@]}"; do
		d=$work/$side/${c%%|*}
		mkdir -p "$d"
		status=0
		(cd "$d" && F=$work/$side.bin bash -c "${c#*|}" >stdout 2>/dev/null) || status=$?
		echo "$status" >"$d/exit"
	done
done
find "$work/base" "$work/head" -name runtime.jsonl -delete

if diff -rq "$work/base" "$work/head" >"$work/diff"; then
	echo "output-diff: ${#cmds[@]} commands, every output byte-identical to $base"
	exit 0
fi
# base/<command>/<file>: the first path component names the command.
while IFS= read -r line; do
	echo "${line//"$work/"/}"
	if [[ $line =~ ^Files\ (.+)\ and\ (.+)\ differ$ ]] &&
		grep -Iq . "${BASH_REMATCH[1]}" && grep -Iq . "${BASH_REMATCH[2]}"; then
		diff "${BASH_REMATCH[1]}" "${BASH_REMATCH[2]}" | grep '^[<>]' | head -20 | cut -c1-200 | sed 's/^/    /' || true
	fi
done <"$work/diff"
echo "output-diff: outputs differ from $base" >&2
exit 1
