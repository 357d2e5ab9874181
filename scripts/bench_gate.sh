#!/usr/bin/env bash
# Benchmark gate on the machine-independent rows of the series.
#
# Runs the benchmark harness once at seed 42 and compares the result
# with the newest committed seed-42 point (testdata/bench/pr*-seed42.json)
# through `benchmark/run.sh compare`. Of compare's rows it judges only
# those that do not depend on the machine:
#
#   changed   an exact value moved: an exact count or one of the four
#             output digests — fails, naming the layer (the metric's
#             prefix before the first '.');
#   worse     alloc_bytes_per_query or allocs_per_query beyond its
#             bound — fails, naming the layer whose
#             <layer>.alloc_bytes_per_query row of the same workload
#             moved most, relatively.
#
# The host-time rows (setup_s, queries_per_s, cpu_ms_per_query,
# heap_p99_mb) are printed but never judged: they are like for like
# only on the box that wrote the committed point (make bench-ab compares
# those pairwise on one machine). Under one that reads worse the gate
# prints, unjudged too, the same workload's <layer>.cpu_share row that
# grew most, relatively: shares sum to one, so the layer that got
# costlier is the one whose share rose.
#
# Usage: scripts/bench_gate.sh               run, compare, judge (~3 min)
#        scripts/bench_gate.sh judge FILE    judge a saved compare output
# Exits 1 when a judged row fails or compare printed no verdict.
set -euo pipefail

# judge FILE: apply the gate to one `benchmark/run.sh compare` output.
# Rows are read first and judged at the end, since a workload's
# per-layer allocation rows follow its end-to-end rows.
judge() {
	awk '
		function layer(name) { return index(name, ".") ? substr(name, 1, index(name, ".") - 1) : name }
		/ exact values changed, / { summary = 1; next }
		NF != 6 || $1 == "workload" { next }
		{
			n++; row[n] = $0; wl[n] = $1; metric[n] = $2; verdict[n] = $3
			move = $6; gsub(/[+%]/, "", move); move += 0
			if ($2 ~ /\.alloc_bytes_per_query$/ && (!($1 in most) || (move < 0 ? -move : move) > mostmove[$1])) {
				most[$1] = n; mostmove[$1] = move < 0 ? -move : move
			}
			if ($2 ~ /\.cpu_share$/ && (!($1 in cpu) || move > cpumove[$1])) {
				cpu[$1] = n; cpumove[$1] = move
			}
		}
		END {
			for (i = 1; i <= n; i++) {
				if (metric[i] ~ /^(setup_s|queries_per_s|cpu_ms_per_query|heap_p99_mb)$/) {
					printf "host-time (not judged)  %s\n", row[i]
					if (verdict[i] == "worse" && (wl[i] in cpu)) {
						printf "  grew most: layer %s  %s\n", layer(metric[cpu[wl[i]]]), row[cpu[wl[i]]]
					}
				} else if (verdict[i] == "changed") {
					printf "FAIL exact value changed  %s  (layer %s)\n", row[i], layer(metric[i]); fail++
				} else if (verdict[i] == "worse" && metric[i] ~ /^(alloc_bytes_per_query|allocs_per_query)$/) {
					printf "FAIL allocation worse    %s\n", row[i]; fail++
					if (wl[i] in most) {
						printf "  moved most: layer %s  %s\n", layer(metric[most[wl[i]]]), row[most[wl[i]]]
					}
				}
			}
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
