# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test check vet vet-fixtures bench bench-smoke bench-ingress bench-pipeline chaos soak soak-recovery soak-ingress fuzz cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The gate: full build, static analysis, and the race-detector-clean test
# suite, shuffled so order-dependent tests cannot hide.
check: build vet
	$(GO) test -race -count=1 -shuffle=on ./...

# Coverage artifact: per-package profiles merged into cover.out plus an
# HTML report; prints the total at the end.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -html=cover.out -o cover.html
	@$(GO) tool cover -func=cover.out | tail -1

# Static analysis: go vet plus the repository's own naiad-vet suite, the
# static twins of the runtime's dynamic vertex-contract checks (see
# docs/static-analysis.md). The gofmt gate fails on any Go file (outside
# dot directories such as the benchmark's build cache) that gofmt would
# change. govulncheck is best-effort: it is not part of the toolchain and
# needs network access for the vuln database.
vet:
	@unformatted=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "vet: not gofmt-clean:" >&2; echo "$$unformatted" >&2; exit 1; fi
	$(GO) vet ./...
	@$(GO) build -o /dev/null ./cmd/naiad-vet || { \
		echo "vet: naiad-vet failed to build; if imports cannot be resolved, run 'go mod tidy' and retry" >&2; \
		exit 1; }
	$(GO) run ./cmd/naiad-vet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vet: govulncheck reported issues or could not reach the vuln database (non-fatal)"; \
	else \
		echo "vet: govulncheck not installed; skipping (install: go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The analyzer test suites: framework facts/call-graph/recovery tests plus
# every analyzer's `// want`-annotated testdata fixtures, including the
# quiesce-deadlock shape lockorder must keep catching.
vet-fixtures:
	$(GO) test -count=1 ./internal/analysis/...

# Progress + runtime microbenchmarks, then the harness comparison of the
# indexed tracker against the scan-based reference oracle and the
# capability (timestamp-token) layer, written to the committed
# BENCH_progress.json baseline (reference column = before, indexed column
# = after; the raw seed numbers predating the indexed tracker are in
# bench/BENCH_progress_before.txt). The run fails if capability overhead
# on update/frontier exceeds 1.25x the indexed tracker.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/progress/ ./internal/runtime/
	$(GO) run ./cmd/naiad-bench -exp=progress -json=BENCH_progress.json
	@echo "wrote BENCH_progress.json"

# CI's quick variant: one iteration per Go benchmark proves they still run
# and the harness experiment still builds its graphs and trackers; no
# baseline file is written, timings at this length are not meaningful.
# The harness run is full-length, so the 1.25x capability-overhead guard
# is enforced here too. BenchmarkWCC keeps the loop operators'
# batch-at-a-time path (Join, AggregateMonotonic) running over two processes.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/progress/ ./internal/runtime/ ./internal/graphalgo/
	$(GO) run ./cmd/naiad-bench -exp=progress

# Record data plane: the typed-batch vs boxed per-record comparison plus
# the Go microbenchmarks and the zero-alloc steady-state gate, written to
# the committed BENCH_pipeline.json baseline (boxed column = before, typed
# column = after; the raw pre-batching seed numbers are in
# bench/BENCH_pipeline_before.txt).
bench-pipeline:
	$(GO) test -run='TestPipelineSteadyStateAllocs|TestEncodeFrameAllocs' -count=1 ./internal/runtime/
	$(GO) test -run='^$$' -bench='BenchmarkPipelineRecords' -benchmem ./internal/runtime/
	$(GO) run ./cmd/naiad-bench -exp=pipeline -json=BENCH_pipeline.json
	@echo "wrote BENCH_pipeline.json"

# Serving-front-door load harness: N server processes × M simulated
# clients (streamers, slow readers, mid-epoch disconnectors, floods),
# written to the committed BENCH_ingress.json baseline. The overload row
# must show shedding engaging with every offered record accounted and a
# bounded heap (see docs/serving.md).
bench-ingress:
	$(GO) run ./cmd/naiad-bench -exp=ingress -json=BENCH_ingress.json
	@echo "wrote BENCH_ingress.json"

# Fault-injection smoke battery (see docs/protocol.md).
chaos:
	$(GO) run ./cmd/naiad-bench -exp=chaos

# Recovery soak: the crash/partition recovery suites under the race
# detector, SOAK_ITERS times with distinct seeds (see
# docs/fault-tolerance.md). Failures print the NAIAD_TEST_SEED to replay.
SOAK_ITERS ?= 5
soak:
	@set -e; for i in $$(seq 1 $(SOAK_ITERS)); do \
		seed=$$((20130101 + i)); \
		echo "== soak iteration $$i/$(SOAK_ITERS) (NAIAD_TEST_SEED=$$seed) =="; \
		NAIAD_TEST_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestSupervisor|TestSupervisedChaosCrashRecovery|TestChaosCrashThenCheckpointRecovery|TestChaosPartitionWatchdogAbortThenReplayRecovery|TestHeartbeat' \
			./internal/supervise/ ./internal/kexposure/ ./internal/runtime/ ./internal/transport/; \
	done

# Barrier-snapshot soak: the seeded asynchronous-barrier suites — marker
# chaos, the randomized recovery simulation, selective rollback, and the
# quiesce differential oracle — under the race detector, SOAK_ITERS times
# with distinct seeds. Each iteration's schedule is drawn from its seed,
# so a failure replays exactly with the printed NAIAD_TEST_SEED; the suite
# itself uses no wall-clock scheduling beyond the bounded cut-settle and
# revival timeouts.
soak-recovery:
	@set -e; for i in $$(seq 1 $(SOAK_ITERS)); do \
		seed=$$((20130101 + 1000 * i)); \
		echo "== soak-recovery iteration $$i/$(SOAK_ITERS) (NAIAD_TEST_SEED=$$seed) =="; \
		NAIAD_TEST_SEED=$$seed $(GO) test -race -count=1 \
			-run 'TestSeededRecoverySimulation|TestSimulationMidBarrierWorkerCrash|TestBarrierChaos|TestBarrierCrash|TestSelectiveRollback|TestCutSettleTimeout|TestDifferentialQuiesceVsBarrierCut' \
			./internal/supervise/; \
	done

# Serving-front-door soak: the full overload cycle (steady state, a
# never-backing-off flood against a slowed dataflow, drain, recovery)
# under the race detector, SOAK_ITERS times with distinct seeds and a
# longer flood than the ordinary test run (see docs/serving.md). Asserts
# sheds engage, the heap stays bounded by the credit pools, and every
# offered record is accounted accepted or shed.
soak-ingress:
	@set -e; for i in $$(seq 1 $(SOAK_ITERS)); do \
		seed=$$((20130101 + 10 * i)); \
		echo "== soak-ingress iteration $$i/$(SOAK_ITERS) (NAIAD_TEST_SEED=$$seed) =="; \
		NAIAD_TEST_SEED=$$seed NAIAD_SOAK_INGRESS_MS=1500 $(GO) test -race -count=1 \
			-run 'TestSoakIngress' ./internal/serve/; \
	done

# Short fuzz passes over the codec, frame, barrier, and trace-log parsers,
# plus the capability/tracker differential (three frontier views must agree
# on every schedule of mint/clone/downgrade/drop).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzCapabilityDifferential -fuzztime=10s ./internal/progress/
	$(GO) test -run=^$$ -fuzz=FuzzDecoder -fuzztime=10s ./internal/codec/
	$(GO) test -run=^$$ -fuzz=FuzzParseFrameHeader -fuzztime=10s ./internal/transport/
	$(GO) test -run=^$$ -fuzz=FuzzDecodeProgress -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzBatchDecode -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalSnapshot -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzBarrierDecode -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalCut -fuzztime=10s ./internal/runtime/
	$(GO) test -run=^$$ -fuzz=FuzzTraceDecode -fuzztime=10s ./internal/trace/
