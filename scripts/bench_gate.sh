#!/usr/bin/env bash
# Benchmark gate on the machine-independent rows of the series.
#
# Runs the benchmark harness once at seed 42 and compares the result
# with the newest committed seed-42 point (testdata/bench/pr*-seed42.json)
# through `benchmark/run.sh compare`. Of compare's rows it judges only
# those that do not depend on the machine:
#
#   changed   an exact value moved: an exact count or one of the four
#             output digests — fails;
#   worse     alloc_bytes_per_query or allocs_per_query beyond its
#             bound — fails.
#
# The host-time rows (setup_s, queries_per_s, cpu_ms_per_query,
# heap_p99_mb) are printed but never judged: they are like for like
# only on the box that wrote the committed point (make bench-ab compares
# those pairwise on one machine).
#
# Usage: scripts/bench_gate.sh               run, compare, judge (~3 min)
#        scripts/bench_gate.sh judge FILE    judge a saved compare output
# Exits 1 when a judged row fails or compare printed no verdict.
set -euo pipefail

# judge FILE: apply the gate to one `benchmark/run.sh compare` output.
judge() {
	awk '
		/ exact values changed, / { summary = 1; next }
		NF != 6 || $1 == "workload" { next }
		$2 ~ /^(setup_s|queries_per_s|cpu_ms_per_query|heap_p99_mb)$/ {
			printf "host-time (not judged)  %s\n", $0; next
		}
		$3 == "changed" { printf "FAIL exact value changed  %s\n", $0; fail++; next }
		$3 == "worse" && $2 ~ /^(alloc_bytes_per_query|allocs_per_query)$/ {
			printf "FAIL allocation worse    %s\n", $0; fail++
		}
		END {
			if (!summary) { print "bench-gate: compare printed no verdict"; exit 1 }
			printf "bench-gate: %d failing row(s)\n", fail
			exit (fail > 0)
		}' "$1"
}

if [ "${1:-}" = judge ]; then
	judge "${2:?usage: scripts/bench_gate.sh judge FILE}"
	exit
fi

root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(ls testdata/bench/pr*-seed42.json | sort -V | tail -1)
out=benchmark/out
mkdir -p "$out"
bash benchmark/run.sh -seed 42 -out "$out/gate-seed42.json"
# compare exits non-zero on any worse or changed row, host time
# included; the gate judges its rows instead.
bash benchmark/run.sh compare "$base" "$out/gate-seed42.json" >"$out/gate-compare.txt" || true
echo "bench-gate: $base (A) vs this tree (B)"
judge "$out/gate-compare.txt"
