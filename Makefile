# fesplit — reproduction of "Characterizing Roles of Front-end Servers in
# End-to-End Performance of Dynamic Content Distribution" (IMC 2011).

GO ?= go

.PHONY: all build test vet race cover bench check layering payload-check alloc-pins fmt-check report report-full clean fuzz-smoke equivalence fastpath-check lossy-check telemetry-smoke profile-smoke queueing-check scale-check bench-selftest bench-gate bench-ab output-diff loc

all: build vet test

# CI-equivalent verification: vet, build, race-clean tests (the
# allocation pins of the event engine, the packet path and the TCP
# transfers are plain tests among them), the payload and formatting
# gates, the exact allocation pins without the race detector, a fuzz
# smoke pass. The observability instrumentation must stay
# goroutine-free; -race proves the simulation stays single-threaded.
check:
	$(GO) vet ./...
	$(GO) build ./...
	$(MAKE) layering
	$(GO) test -race ./...
	$(MAKE) payload-check
	$(MAKE) alloc-pins
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
# its allocation budget while a full-payload one costs ≥ 4× as much, a
# Runner record's events must be its connection's recorder list (capped,
# disjoint, together the node's whole capture) inside the lossy world's
# per-query budget, and a Runner given a measurer must measure each
# record at close exactly as a run-end parse would, keeping no events and
# inside its capture budget;
# below them, the same differential for TCP streams and HTTP responses
# that mix real and content-free bytes; a warm client→FE→BE query inside
# its exact allocation pin (the pin itself skips under the race
# detector, the exchange still runs), and a ResponseWriter kept past its
# connection's end writing nothing into the connection that reuses the
# object. At an elevated -count under the race detector. Last, at study level: the probe's boundary equals what
# each timing cell's materialised world derives from its own content, so
# those cells run length-only inside an allocation budget, and the
# matrix probes each service once. World set-up last: generators share
# one popularity table (drawn from concurrently), and client paths
# resolve on first use to what eager wiring would have laid. The
# per-packet rows (Segment, lane event, capture row) stay small and
# pointer-free. See DESIGN.md §payload path.
payload-check:
	$(GO) test -race -count=2 -run 'TestTwinWorlds|TestLengthOnlyAllocBudget|TestRunnerRecordsAreRecorderSessions|TestRunnerCaptureAllocBudget|TestRecordsSurviveLaterExperiments|TestDatasetRecordsPresized|TestMeasureAtCloseMatchesRunEnd|TestMeasuredRunnerHoldsNoEvents' ./internal/emulator
	$(GO) test -race -count=2 -run 'Blank|ContentFree|CountOnly' ./internal/tcpsim ./internal/httpsim
	$(GO) test -race -count=2 -run 'TestServedQueryAllocPins|TestStaleWriterWritesNothing' ./internal/frontend ./internal/httpsim
	$(GO) test -race -run 'TestProbeBoundaryMatchesOwnContent|TestTimingCellsAllocBudget|TestMatrixProbesEachServiceOnce' .
	$(GO) test -race -count=2 -run 'TestGeneratorsSharePopularity|TestClientPathsOnDemand' ./internal/workload ./internal/cdn
	$(GO) test -run 'TestRowLayouts' ./internal/tcpsim ./internal/capture
	$(GO) test -race -run 'FuzzRecorder' ./internal/capture

# Exact allocation pins that skip their exact arms under the race
# detector (its sync.Pool drops objects at random, so fmt allocates at
# random): HTTP heads, query paths, a served query, and the cost of
# observing (observed vs unobserved world, a warm fold pass, a rejected
# record's fold). Run without -race so they gate.
alloc-pins:
	$(GO) test -count=1 -run 'TestHeadAllocPins|TestServedQueryAllocPins|TestPathAllocPins|TestObservedQueryAllocOverhead|TestRejectedRecordFoldAllocs' ./internal/httpsim ./internal/frontend ./internal/workload ./internal/analysis

# Formatting gate: no Go file in the tree differs from its gofmt form.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }

# Fast lane gate: the lane is TCP's only path, and its reference is the
# packet path's transcripts, frozen as digests (testdata) for randomized
# RTT/loss/size/cwnd scenarios — i.i.d. and Gilbert — the mid-stream
# topology changes, a one-way blackout, the scenarios that once left the
# lane (forwarding and dropping handlers, a closed connection's late
# ACK — every segment must ride it), a receiver whose demux table
# churns mid-flight (full demux, no boxed segment) and pooled ring
# storage (flat across fresh connections); then the drop schedules and
# the keep-alive fuzz seeds, at an elevated -count and under the race
# detector. Slower than the regular test run; CI runs it as its own job.
fastpath-check:
	$(GO) test -race -count=5 -run 'FastPath|TestLaneStorageFollowsInFlight|TestLossEpochBlackout' ./internal/tcpsim
	$(MAKE) lossy-check
	$(GO) test -race -count=5 -run 'FuzzKeepAliveExpiry' ./internal/httpsim
	$(GO) test -race -count=2 -run 'TestParallelSerialEquivalence' .

# Loss-schedule gate: every drop mask over the first 6 packets in each
# direction for 48 transfer shapes (196 608 runs; the regular test run
# enumerates 4 per direction), judged by absolute end states — both ends
# CLOSED, every byte delivered in order, nothing pending — with the
# no-RST end state pinned to its count. See docs/PERF.md.
lossy-check:
	$(GO) test -count=1 -run 'TestDropSchedules' ./internal/tcpsim -dropk 6

# Short fuzz pass over the observability codecs (label escaping, the
# metrics JSONL round trip over all three instrument kinds, arbitrary
# bytes into the JSONL reader, the exporters' JSON string encoder
# against encoding/json), the trace
# file codec (arbitrary bytes into Decode; built traces through Encode
# and back), the recorder (tap sequences against its own trace, session
# split and codec), the session parser above it (whatever Decode accepts into
# trace.Parse), the lane's rings against a merged-FIFO model (order, counts, pooled storage), the
# HTTP head parsers and renderers (arbitrary bytes in; rendered heads equal
# to their fmt-based references and parsed back) and the query URL (Path
# and ParsePath against their net/url references). Go runs
# one fuzz target per invocation, so one run each. ~10s each — a smoke
# pass, not a campaign; the CI check job runs this target, so the list
# lives here. FuzzParse's seeds are whole 31 KB captures, which the
# fuzzer's default 60 s-per-input minimisation would spend the smoke
# pass shrinking: -fuzzminimizetime 0 spends it executing instead.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/capture
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecodeRoundTrip -fuzztime 10s ./internal/capture
	$(GO) test -run '^$$' -fuzz FuzzRecorder -fuzztime 10s ./internal/capture
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s -fuzzminimizetime 0 ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzPrometheusLabelEscape -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzMetricsJSONLRoundTrip -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzReadMetricsJSONL -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzJSONString$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzLaneRings -fuzztime 10s ./internal/tcpsim
	$(GO) test -run '^$$' -fuzz '^FuzzRequestParser$$' -fuzztime 10s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz '^FuzzResponseParser$$' -fuzztime 10s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz '^FuzzQueryPath$$' -fuzztime 10s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParsePath$$' -fuzztime 10s ./internal/workload

# Load-aware queueing gate: the Lindley/M-D-1 property tests, the
# zero-load byte-identity degeneracy, FE admission control and
# retry/backoff at an elevated -count under the race detector, the
# overload/hotspot/failover/capacity scenario determinism check and
# scorecard rows, the golden-CSV gate that pins those cells, and a short
# fuzz pass over the FE admission control. See docs/QUEUEING.md.
queueing-check:
	$(GO) test -race -count=3 ./internal/backend ./internal/frontend
	$(GO) test -race -count=2 -run 'TestQueueScenariosDeterministic|TestOverloadScenario|TestHotspotScenario|TestFailoverScenario|TestCapacitySweep|TestGoldenFigureCSVs' .
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
# harness before the next benchmark run does. Then bench-gate's judge on
# four canned compare outputs: host-time rows that read worse pass, under
# each the layer whose CPU share grew most; a changed digest fails; and
# worse allocations fail naming the layer whose allocation row moved
# most, as a changed per-layer count names its own.
bench-selftest:
	cd benchmark && $(GO) test ./...
	./scripts/bench_gate.sh judge testdata/bench-gate/clean.txt
	! ./scripts/bench_gate.sh judge testdata/bench-gate/changed-digest.txt
	! ./scripts/bench_gate.sh judge testdata/bench-gate/worse-alloc.txt >/dev/null
	./scripts/bench_gate.sh judge testdata/bench-gate/worse-alloc.txt | grep -q 'moved most: layer capture '
	./scripts/bench_gate.sh judge testdata/bench-gate/worse-alloc.txt | grep -q 'simnet.events_per_query .*(layer simnet)$$'
	./scripts/bench_gate.sh judge testdata/bench-gate/worse-host.txt >/dev/null
	./scripts/bench_gate.sh judge testdata/bench-gate/worse-host.txt | grep -q 'grew most: layer tcpsim '
	./scripts/bench_gate.sh judge testdata/bench-gate/worse-host.txt | grep -q 'grew most: layer obs '

# Benchmark gate on the machine-independent rows (ROADMAP item 1): one
# seed-42 harness run compared with the newest committed point; fails on
# a changed exact count or digest, or worse allocations per query, and
# prints host-time rows unjudged. See scripts/bench_gate.sh.
bench-gate:
	./scripts/bench_gate.sh

# Runtime-telemetry smoke, end to end through the CLI: a short study
# with heartbeat, streaming sink and the HTTP endpoint all on; scrapes
# /metrics and /progress and checks the expected series, snapshot keys,
# heartbeat lines and runtime.jsonl landed. Telemetry is wall-clock
# only, so nothing here diffs against deterministic artifacts.
telemetry-smoke: build
	./scripts/telemetry_smoke.sh ./bin/fesplit

# Critical-path profiler / regression-gate smoke, end to end through
# the CLI: two same-seed study runs must diff clean (exit 0), a run
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
	@printf '%-20s %6d\n' total $$(git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l)
	@for d in . internal/emulator internal/analysis internal/obs internal/obs/runtime internal/capture internal/trace internal/simnet internal/tcpsim internal/httpsim internal/frontend internal/backend internal/cdn internal/workload cmd/fesplit; do \
		printf '%-20s %6d\n' $$d $$(git ls-files ":(glob)$$d/*.go" | grep -v _test.go | xargs cat | wc -l); \
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

# Paired A/B run of this checkout against a base revision on one machine:
# PAIRS single-workload runs per side of WORKLOAD (default: all four),
# alternating order, then per end-to-end metric the medians, quartiles,
# pairs won and a verdict against its bound (worse / within /
# unresolved). Exits non-zero when a metric reads worse. See
# scripts/bench_ab.sh.
BASE ?= HEAD
PAIRS ?= 3
WORKLOAD ?=
bench-ab:
	./scripts/bench_ab.sh "$(BASE)" "$(PAIRS)" "$(WORKLOAD)"

# Byte-identity of the CLI's outputs against a base revision: the
# study at seeds 42 and 7, the diurnal fleet, every report figure, trace
# and decode, sweep and direct, built from BASE and from this checkout
# and diffed file by file (stderr and runtime.jsonl excluded). FULL=1
# adds the paper-scale study. Exits 1 naming every file that differs,
# each text file with its first differing lines.
# See scripts/output_diff.sh.
output-diff:
	./scripts/output_diff.sh "$(BASE)"

# Light-scale figure regeneration into study-out/ (seconds).
report: build
	./bin/fesplit study -dir study-out

# Paper-scale regeneration into study-full/ (250 nodes, 720 repeats;
# ~11 s and ~0.5 GB peak RSS on 2 vCPUs).
report-full: build
	./bin/fesplit study -scale full -dir study-full

clean:
	rm -rf bin
