#!/usr/bin/env bash
# Paired A/B benchmark of this checkout against a base revision.
#
# Extracts BASE into a temporary directory (git archive: nothing is
# registered in .git), builds the benchmark harness in both trees, then
# runs `benchmark/run.sh --workload W` PAIRS times per workload on each
# side, alternating the order within a pair (A B, B A, ...) so drift in
# machine load falls on both. For every end-to-end metric of
# BENCHMARK.json it prints the base and change medians with their
# quartiles, the change of the medians (positive = worse), the pairs the
# change won, and a verdict against the metric's bound:
#
#   worse       the change's median is worse than the base's by more
#               than the bound;
#   unresolved  not worse, but one side's quartile spread exceeds the
#               bound, so a change of that size could not be told apart;
#   within      neither.
#
# The change side is the checkout as it is on disk, rebuilt by every
# run: leave it untouched until the script exits.
#
# Usage: scripts/bench_ab.sh BASE [PAIRS] [WORKLOAD]
#   BASE      any git revision (HEAD compares the checkout with its commit)
#   PAIRS     runs per side and workload (default 3)
#   WORKLOAD  one workload name (default: every workload in BENCHMARK.json)
# Every run is at seed 42 and the harness's default run length.
# Exits 1 when any metric reads worse or a run fails.
set -euo pipefail

base=${1:?usage: scripts/bench_ab.sh BASE [PAIRS] [WORKLOAD]}
pairs=${2:-3}
only=${3:-}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git -C "$root" archive "$(git -C "$root" rev-parse --verify "$base^{commit}")" | tar -x -C "$work/base"

# One build per tree before any run, so no run pays for a build.
for tree in "$work/base" "$root"; do
	(cd "$tree" && bash benchmark/run.sh manifest >/dev/null)
done

# name better bound, one end-to-end metric a line.
awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
	on && /"name"/ {gsub(/[",]/, "", $2); name = $2}
	on && /"better"/ {gsub(/[",]/, "", $2); better = $2}
	on && /"bound"/ {gsub(/[",]/, "", $2); print name, better, $2}' \
	"$root/BENCHMARK.json" >"$work/metrics"
if [ -n "$only" ]; then
	echo "$only" >"$work/workloads"
else
	awk '/"workloads"/ {on = 1} /"end_to_end"/ {on = 0}
		on && /"name"/ {gsub(/[",]/, "", $2); print $2}' "$root/BENCHMARK.json" >"$work/workloads"
fi

# run SIDE TREE WORKLOAD: one single-workload run (one JSON line), appending
# "metric value" lines to $work/<workload>.<side>.
run() {
	local line
	line=$(cd "$2" && bash benchmark/run.sh --workload "$3" --seed 42 2>"$work/stderr") || {
		cat "$work/stderr" >&2
		echo "bench-ab: $1 run of $3 failed" >&2
		exit 1
	}
	case $line in
	*'"correct":true'*) ;;
	*)
		echo "bench-ab: $1 run of $3 reported incorrect output: $line" >&2
		exit 1
		;;
	esac
	echo "$line" | grep -o '"[a-z_0-9]*":{"value":[-0-9.e+]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /' >>"$work/$3.$1"
}

worse=0
while read -r w; do
	: >"$work/$w.A"
	: >"$work/$w.B"
	for ((i = 1; i <= pairs; i++)); do
		echo "bench-ab: $w pair $i/$pairs" >&2
		if ((i % 2)); then
			run A "$work/base" "$w"
			run B "$root" "$w"
		else
			run B "$root" "$w"
			run A "$work/base" "$w"
		fi
	done
	echo "== $w: base $base (A) vs this checkout (B), $pairs pairs, seed 42"
	printf '%-22s %6s  %-34s %-34s %8s %5s  %s\n' metric bound "A median [q1 q3]" "B median [q1 q3]" "Δ worse" wins verdict
	while read -r name better bound; do
		verdict=$(awk -v m="$name" -v better="$better" -v bound="$bound" -v pairs="$pairs" '
			function q(v, n, p,   h, l) { h = p * (n - 1); l = int(h); return l + 1 < n ? v[l] + (h - l) * (v[l + 1] - v[l]) : v[l] }
			function sort(v, n,   i, j, t) { for (i = 1; i < n; i++) for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t } }
			$1 == m && FILENAME ~ /\.A$/ { a[na++] = $2 }
			$1 == m && FILENAME ~ /\.B$/ { b[nb++] = $2 }
			END {
				for (i = 0; i < pairs; i++) won += better == "lower" ? b[i] < a[i] : b[i] > a[i]
				sort(a, na); sort(b, nb)
				ma = q(a, na, .5); mb = q(b, nb, .5)
				d = ma == 0 ? 0 : (better == "lower" ? mb - ma : ma - mb) / ma
				sa = ma == 0 ? 0 : (q(a, na, .75) - q(a, na, .25)) / ma
				sb = mb == 0 ? 0 : (q(b, nb, .75) - q(b, nb, .25)) / mb
				v = d > bound ? "worse" : (sa > bound || sb > bound) ? "unresolved" : "within"
				printf "%-22s %5.0f%%  %-34s %-34s %+7.1f%% %2d/%-2d  %s\n", m, bound * 100,
					sprintf("%.6g [%.6g %.6g]", ma, q(a, na, .25), q(a, na, .75)),
					sprintf("%.6g [%.6g %.6g]", mb, q(b, nb, .25), q(b, nb, .75)), d * 100, won, pairs, v
			}' "$work/$w.A" "$work/$w.B")
		echo "$verdict"
		case $verdict in *' worse') worse=$((worse + 1)) ;; esac
	done <"$work/metrics"
done <"$work/workloads"
echo "bench-ab: $worse worse"
[ "$worse" -eq 0 ]
