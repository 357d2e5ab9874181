#!/usr/bin/env bash
# Profile/diff smoke test, end to end through the CLI: run three seeded
# studies (each writes the critical-path blame table) and assert the
# regression gate's three contracts —
# `fesplit diff` exits 0 on a same-seed pair (identical runs carry no
# regressions), exits nonzero naming the BE-processing phase on a pair
# with an injected BE-latency regression (-be-slowdown), and exits
# nonzero when it compared nothing (an empty dump, a -family filter
# matching no series): a gate that compared nothing has not passed.
#
# Usage: scripts/profile_smoke.sh [path-to-fesplit-binary]
set -euo pipefail

bin=${1:-./bin/fesplit}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$bin" study -seed 7 -workers 2 -dir "$out/base" 2>"$out/base.log"
"$bin" study -seed 7 -workers 2 -dir "$out/same" 2>"$out/same.log"
"$bin" study -seed 7 -workers 2 -be-slowdown 2.0 -dir "$out/slow" 2>"$out/slow.log"

for f in profile.csv metrics.jsonl spans.jsonl report.html; do
    [ -s "$out/base/$f" ] || { echo "study output missing $f"; exit 1; }
done
grep -q '^service,phase,count' "$out/base/profile.csv" \
    || { echo "profile.csv missing blame header"; head "$out/base/profile.csv"; exit 1; }
grep -q 'be-proc' "$out/base/profile.csv" \
    || { echo "profile.csv missing be-proc phase"; exit 1; }
grep -q 'critical-path blame' "$out/base.log" \
    || { echo "stderr missing blame table"; cat "$out/base.log"; exit 1; }

# Same-seed runs must be byte-identical (determinism contract) and
# diff clean with exit 0.
diff -r "$out/base" "$out/same" >/dev/null \
    || { echo "same-seed study runs differ"; exit 1; }
"$bin" diff "$out/base" "$out/same" >"$out/diff-same.txt" \
    || { echo "diff failed on identical runs:"; cat "$out/diff-same.txt"; exit 1; }
grep -q ' 0 regressions' "$out/diff-same.txt" \
    || { echo "same-seed diff reported regressions:"; cat "$out/diff-same.txt"; exit 1; }

# The injected 2× BE slowdown must breach, exit nonzero, and the
# verdict table must name the BE-processing critical-path phase.
if "$bin" diff "$out/base" "$out/slow" >"$out/diff-slow.txt"; then
    echo "diff exited 0 on injected BE slowdown:"; cat "$out/diff-slow.txt"; exit 1
fi
grep -q 'REGRESSED' "$out/diff-slow.txt" \
    || { echo "no REGRESSED verdicts on slowdown pair:"; cat "$out/diff-slow.txt"; exit 1; }
grep -q 'critpath_phase_seconds.*phase=be-proc' "$out/diff-slow.txt" \
    || { echo "regression table does not name be-proc:"; cat "$out/diff-slow.txt"; exit 1; }

# Nothing compared → nonzero: an empty new dump, and a family filter
# that matches no sketch family of an otherwise clean pair.
mkdir "$out/empty" && : >"$out/empty/metrics.jsonl"
if "$bin" diff "$out/base" "$out/empty" >"$out/diff-empty.txt" 2>"$out/diff-empty.err"; then
    echo "diff exited 0 against an empty metrics.jsonl:"; cat "$out/diff-empty.txt"; exit 1
fi
grep -q 'nothing compared' "$out/diff-empty.err" \
    || { echo "empty-dump failure does not say nothing was compared:"; cat "$out/diff-empty.err"; exit 1; }
if "$bin" diff -family no_such_family "$out/base" "$out/same" >"$out/diff-nofam.txt" 2>/dev/null; then
    echo "diff exited 0 with a -family filter matching nothing:"; cat "$out/diff-nofam.txt"; exit 1
fi

echo "profile smoke: ok (blame table + same-seed clean diff + injected regression caught naming be-proc + nothing compared fails)"
