# fesplit — reproduction of "Characterizing Roles of Front-end Servers in
# End-to-End Performance of Dynamic Content Distribution" (IMC 2011).

GO ?= go

.PHONY: all build test vet race cover bench check layering payload-check fmt-check report report-full clean fuzz-smoke equivalence fastpath-check lossy-check telemetry-smoke profile-smoke queueing-check scale-check bench-selftest loc

all: build vet test

# CI-equivalent verification: vet, build, race-clean tests (the
# allocation pins of the event engine, the packet path and the TCP
# transfers are plain tests among them), the payload and formatting
# gates, a fuzz smoke pass. The observability instrumentation must stay
# goroutine-free; -race proves the simulation stays single-threaded.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(MAKE) layering
	$(GO) test -race ./...
	$(MAKE) payload-check
	$(MAKE) fmt-check
	$(MAKE) fuzz-smoke

# Layering gate: the emulator captures and joins, internal/analysis
# parses and measures. The import graph is what keeps the emulator from
# parsing a record a second time, so it is what this checks.
layering:
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/emulator | \
		grep -E '^fesplit/internal/(trace|analysis)$$'; then \
		echo "layering: internal/emulator must not import the packages listed above"; exit 1; \
	fi
	@echo "layering: internal/emulator imports neither internal/trace nor internal/analysis"

# Length-only payload gate: a snapped world must be the full-payload
# world minus the bytes (twin-world differential: records, packets, FE
# ground truth, event counts), and a length-only query must stay inside
# its allocation budget while a full-payload one costs ≥ 4× as much;
# below them, the same differential for TCP streams and HTTP responses
# that mix real and content-free bytes. At an elevated -count under the
# race detector. See DESIGN.md §payload path.
payload-check:
	$(GO) test -race -count=2 -run 'TestTwinWorlds|TestLengthOnlyAllocBudget' ./internal/emulator
	$(GO) test -race -count=2 -run 'Blank|ContentFree|CountOnly' ./internal/tcpsim ./internal/httpsim

# Formatting gate: no Go file in the tree differs from its gofmt form.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }

# Fast-forward engine equivalence gate: the differential property test
# (randomized RTT/loss/size/cwnd scenarios — i.i.d. and Gilbert — fast
# lane vs packet lane), the fallback-boundary tests and the keep-alive
# fuzz seeds, at an elevated -count and under the race detector. Slower
# than the regular test run; CI runs it as its own job.
fastpath-check:
	$(GO) test -race -count=5 -run 'FastPath' ./internal/tcpsim
	$(MAKE) lossy-check
	$(GO) test -race -count=5 -run 'FuzzKeepAliveExpiry' ./internal/httpsim
	$(GO) test -race -count=2 -run 'TestParallelSerialEquivalence' .

# Lossy fast-lane gate: the lossy differential pins (first-segment
# loss, dropped retransmission, final-round loss, tail-loss RTO,
# back-to-back Gilbert bursts, a one-way blackout — lane run ≡ packet
# run) and the fuzz seed replay, at an elevated -count under the race
# detector. See docs/PERF.md §lossy fast-forwarding.
lossy-check:
	$(GO) test -race -count=5 -run 'TestLossEpoch|FuzzLossEpochBoundary' ./internal/tcpsim

# Short fuzz pass over the observability codecs (label escaping, the
# metrics JSONL round trip over all three instrument kinds, arbitrary
# bytes into the JSONL reader), the trace
# file codec (arbitrary bytes into Decode; built traces through Encode
# and back), the session parser above it (whatever Decode accepts into
# trace.Parse) and the lossy fast-lane differential property. Go runs
# one fuzz target per invocation, so one run each. ~10s each — a smoke
# pass, not a campaign; the CI check job runs this target, so the list
# lives here. FuzzParse's seeds are whole 31 KB captures, which the
# fuzzer's default 60 s-per-input minimisation would spend the smoke
# pass shrinking: -fuzzminimizetime 0 spends it executing instead.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/capture
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 10s ./internal/capture
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzPrometheusLabelEscape -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzMetricsJSONLRoundTrip -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzReadMetricsJSONL -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzLossEpochBoundary -fuzztime 10s ./internal/tcpsim

# Load-aware queueing gate: the Lindley/M-D-1 property tests, the
# zero-load byte-identity degeneracy, FE admission control and
# retry/backoff at an elevated -count under the race detector, the
# overload/hotspot/failover/capacity scenario determinism check, the
# golden-CSV gate that pins those cells, and a short fuzz pass over the
# FE admission control. See docs/QUEUEING.md.
queueing-check:
	$(GO) test -race -count=3 ./internal/backend ./internal/frontend
	$(GO) test -race -count=2 -run 'TestQueueScenariosDeterministic|TestGoldenFigureCSVs' .
	$(GO) test -run '^$$' -fuzz FuzzAdmissionControl -fuzztime 10s ./internal/frontend

# Bounded-memory fleet gate, end to end through the CLI: a 10⁴-client
# streaming diurnal campaign must complete every arrival with the heap
# watermark under the pinned bound (192 MiB, matching
# TestFleetStudyHeapBound) and a worker-invariant fleet.csv, and the
# small-scale figure CSVs must stay byte-identical to testdata/golden.
# See docs/SCALE.md. The first line is the fleet path's race gate:
# batch worlds run on concurrent workers, so the fleet study must stay
# race-clean at an elevated -count.
scale-check: build
	$(GO) test -race -count=3 -run 'TestRunFleetStudySmall|TestFleetStudy' .
	./scripts/scale_smoke.sh ./bin/fesplit

# Self-tests of the separate fesplit/benchmark module (not part of the
# root `go test ./...`): catches an API rename that breaks the benchmark
# harness before the next benchmark run does.
bench-selftest:
	cd benchmark && $(GO) test ./...

# Runtime-telemetry smoke, end to end through the CLI: a short study
# with heartbeat, streaming sink and the HTTP endpoint all on; scrapes
# /metrics and /progress and checks the expected series, snapshot keys,
# heartbeat lines and runtime.jsonl landed. Telemetry is wall-clock
# only, so nothing here diffs against deterministic artifacts.
telemetry-smoke: build
	./scripts/telemetry_smoke.sh ./bin/fesplit

# Critical-path profiler / regression-gate smoke, end to end through
# the CLI: two same-seed profiled runs must diff clean (exit 0), a run
# with an injected 2× BE slowdown must fail the gate (nonzero) with a
# verdict naming the be-proc phase, and a diff that compared nothing
# must fail too. See docs/PROFILING.md.
profile-smoke: build
	./scripts/profile_smoke.sh ./bin/fesplit

# Serial/parallel equivalence, end to end through the CLI: the full
# observed study exported twice — one worker, then four — must be
# byte-identical across every artifact (CSVs, JSONL, Prometheus text,
# HTML, spans). This is the parallel runner's contract; see
# docs/PARALLEL.md.
equivalence: build
	rm -rf equiv-w1 equiv-w4
	./bin/fesplit study -seed 7 -workers 1 -dir equiv-w1
	./bin/fesplit study -seed 7 -workers 4 -dir equiv-w4
	diff -r equiv-w1 equiv-w4
	rm -rf equiv-w1 equiv-w4
	@echo "serial and parallel study outputs are byte-identical"

# Aim-2 progress metric (ROADMAP): non-test Go lines outside benchmark/,
# in total and for the packages the simplification PRs work on.
# CHANGES.md quotes these numbers; this target reproduces them.
loc:
	@printf '%-18s %6d\n' total $$(git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l)
	@for d in . internal/emulator internal/analysis internal/obs internal/capture internal/trace internal/tcpsim internal/httpsim cmd/fesplit; do \
		printf '%-18s %6d\n' $$d $$(git ls-files ":(glob)$$d/*.go" | grep -v _test.go | xargs cat | wc -l); \
	done

build:
	$(GO) build ./...
	$(GO) build -o bin/fesplit ./cmd/fesplit

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# The benchmark series (ROADMAP item 1): one full run of benchmark/ at
# seed 42 (~3 min), judged by the harness's own compare against the
# newest committed seed-42 point in testdata/bench/ (A = committed, B =
# this tree). Fails when a bounded metric is worse or an exact count
# moved; host-time metrics are like for like only on the box that wrote
# the point. To extend the series, run both seeds with
# -out testdata/bench/pr<N>-seed42.json and -seed7.json (7 is held out).
bench:
	bash benchmark/run.sh -seed 42 -out benchmark/out/result.json
	bash benchmark/run.sh compare "$$(ls testdata/bench/pr*-seed42.json | sort -V | tail -1)" benchmark/out/result.json

# Light-scale figure regeneration (seconds).
report: build
	./bin/fesplit report

# Paper-scale regeneration (250 nodes, 720 repeats; ~10 min, ~4 GB RSS).
report-full: build
	./bin/fesplit report -scale full -csv results_csv | tee report_full.txt

clean:
	rm -rf bin
