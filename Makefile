GO ?= go

.PHONY: check check-assembly check-reporting check-fma check-surface fmt-check check-oracle check-prop check-allocs check-artifacts build vet test race race-obs fuzz-smoke bench-sched profile-replay profile-serve bench bench-wall bench-wall-compare e2e-serve lint

## check: everything CI should gate on.
check: fmt-check vet check-surface build test race fuzz-smoke

## fmt-check: every Go file is gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; fi

## check-assembly: internal/system is the only non-test code that calls the
## store, cache, scheduler and engine constructors (DESIGN.md §3, "One
## assembler"); offenders are named by file and line. TestOneAssembler in
## the root package, part of go test ./...
check-assembly:
	$(GO) test -count=1 -run TestOneAssembler .

## check-reporting: the reporting tier holds one of each — one histogram
## type, one trace decoder (obs.ScanTrace), one quantile rank
## (obs.Quantile), five binaries (DESIGN.md §20); offenders are named by
## file and line. TestOneReportingTier in the root package, part of go
## test ./...
check-reporting:
	$(GO) test -count=1 -run TestOneReportingTier .

## check-fma: no fused multiply-add in the packages that compute a
## decision, a sample or a trace (sched, oracle, field, query, engine,
## workload, disk, vclock, prefetch) — jawsd and the oracle, field, query
## and engine test binaries cross-compiled for arm64, ppc64le and riscv64
## and disassembled (the tests mirror the kernels bit for bit; the oracle
## compares floats with ==, DESIGN.md §12); a fused x*y + z rounds
## differently from amd64, so the byte-identical artifacts and the oracle's
## float equality would hold on amd64 only. Offending functions are printed.
check-fma:
	./scripts/check_fma.sh

## check-surface: the closed surface (DESIGN.md §3) — every exported name
## under internal/ (outside internal/oracle) is reachable from non-test
## code of this module or benchmark/, and every field of an internal Config
## is set by non-test code outside its package; the types the facade
## aliases get no exemption. A finding names the symbol, file and line. The
## ≤ 4-entry allowlist, one reason each, is surfaceAllow in surface_test.go.
check-surface:
	$(GO) test -count=1 -run 'TestClosedSurface' .

## check-oracle: the scheduler correctness oracle — every decision of the
## real schedulers diffed against the reference models over randomized
## workloads and fault schedules (see DESIGN.md §12); a divergence prints a
## shrunk reproducer. TestDifferentialSuite, part of go test ./...
check-oracle:
	$(GO) test -count=1 -run TestDifferentialSuite ./internal/oracle/

## check-artifacts: the proof a refactor changed no decision — every
## committed BENCH_*.json regenerated and compared byte for byte (the
## virtual-time artifacts are byte-deterministic, DESIGN.md §11). The files
## and the arguments that produce them are one table in
## cmd/jawsbench/artifacts_test.go; the test is also part of go test ./...
check-artifacts:
	$(GO) test -count=1 -run TestArtifactsByteIdentical ./cmd/jawsbench/

## build: this module, and the benchmark module built and vetted against it
## (it compiles against internal/, which tier-1 does not build).
build:
	$(GO) build ./...
	cd benchmark && $(GO) vet ./...

vet:
	$(GO) vet ./...

## lint: static analysis beyond vet — staticcheck and govulncheck. The
## target never installs anything: tools that are not on PATH are
## skipped with a notice (CI installs both; see .github/workflows/ci.yml).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else echo "lint: staticcheck not on PATH, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	else echo "lint: govulncheck not on PATH, skipping"; fi

test:
	$(GO) test ./...

## race: the full suite under the race detector (slow).
race:
	$(GO) test -race ./...

## race-obs: race-check the packages with real concurrency — the obs
## layer (atomic registry, locked tracer), a filled atom that goroutines
## share read-only (field's TestSharedAtomReadOnly),
## the results consumers hold and release (TestResultStableUntilRelease,
## TestLateResultReleased), the scheduler structures, the sessions the
## assembler starts, the serving layer, and their concurrent users.
## -short: the engine's 20 000-request memory soak (TestRowsFollowFills),
## which is one goroutine's, runs 2 000 requests here.
race-obs:
	$(GO) test -race -short ./internal/obs/ ./internal/field/ ./internal/sched/ ./internal/engine/ ./internal/system/ ./internal/cluster/ ./internal/server/ ./cmd/jawsd/ ./cmd/jawsload/ ./cmd/jawsreport/

## check-prop: every op-log certificate behind one target — the
## quickcheck-style differential property tests (random op logs replayed
## through the production schedulers and the reference models, decisions
## and utilities compared bit for bit), the job graph's (op logs and job
## sets through oracle.GatingPair against the gating model, everything the
## graph exposes compared after every op), the cache's (LRU-K against the
## scanning reference, LRU-K(1) against a linked-list LRU, SLRU against the
## oracle's model, residency and evictions compared after every op, with
## corruption drops mixed in) and the faulty run pinned across commits.
check-prop:
	$(GO) test -run 'TestRandomOpLogs|TestUtilityMismatchCaught|TestSLRUDifferential|TestGating.*Differential' -count 1 ./internal/oracle/
	$(GO) test -run 'TestGraphMatchesReference|FuzzGraphOps' -count 1 ./internal/jobgraph/
	$(GO) test -run 'TestLRUKMatchesReferenceOnRandomOpLogs|TestLRUKOneIsLRU|TestIntegrityCorruptionDropsEntry' -count 1 ./internal/cache/
	$(GO) test -run 'TestFaultyRunPinned' -count 1 ./internal/system/

## check-allocs: the zero-allocation pin on the decision path, 200 times
## over — one allocation in ten rounds is enough to fail a run, so only
## repetition shows a rare one (map growth, a pool refill) — and the
## serving layer's wire-codec and handler pins and what a served loopback
## request allocates over net/http's floor, which are exact counts
## and need 20 repetitions only to meet every pool state; likewise the
## engine's frame pins (a miss at capacity allocates nothing — the handle
## and the sample half rows are an evicted atom's; a stencil's fill on a
## fresh atom at capacity takes its half rows from evicted atoms' and
## allocates nothing; a URC utility push allocates nothing; differencing a
## completed derivative query allocates nothing), the LRU-K pins (a hit, and a miss's Victim + OnEvict + OnInsert
## of a returning and of a never-seen atom, allocate nothing), the engine's
## query-frame pins (a dispatch into a recycled frame allocates nothing; a
## bulk request on a session, Submit to Release, its Submit argument), the
## data-path pin (one decision over 8 or 64 resident sub-queries, fill and
## kernels on the simulation goroutine, allocates nothing) and the admission
## pins (registering a job allocates at most a member array per admitted
## edge, an ordered job's arrival and first dispatch nothing more, a held
## query's gate re-check and the event list nothing) — and the in-repo twin
## of the wall-clock benchmark's replay-cold allocation figures: one Run of
## the BENCH_main.json trace allocates at most 0.865 objects and 0.705 KiB
## per query, and nothing of it stays reachable from the System — and
## opening a store allocates the same at 1 step as at 31: an atom's extent
## is arithmetic on its (step, Morton) key, so nothing is built per atom;
## opening a System allocates the same bytes at a 256-atom cache as at a
## 2^20-atom one: the cache reserves nothing for atoms it does not hold.
check-allocs:
	$(GO) test -run TestDecisionPathZeroAllocs -count 200 ./internal/sched/
	$(GO) test -run 'TestCodecAllocs|TestHandleQueryAllocs|TestServedRequestOverFloor' -count 20 ./internal/server/
	$(GO) test -run 'TestReadMissAllocs|TestFillRecyclesRows|TestURCDecisionZeroAllocs|TestDifferenceAllocs|TestArrivalPathAllocs|TestCanDispatchZeroAllocs|TestDispatchAllocs|TestFittingFrameReuse|TestSessionQueryAllocs|TestDecisionAllocsIndependentOfBatchSize' -count 20 ./internal/engine/
	$(GO) test -run 'TestRunAllocBudget|TestFramesDieWithEngine|TestOpenIndependentOfCacheCapacity' -count 5 ./internal/system/
	$(GO) test -run 'TestLRUKHitDoesNotAllocate|TestLRUKMissZeroAllocs' -count 20 ./internal/cache/
	$(GO) test -run TestAdmissionAllocs -count 20 ./internal/jobgraph/
	$(GO) test -run TestEventListZeroAllocs -count 20 ./internal/vclock/
	$(GO) test -run TestOpenIndependentOfSteps -count 5 ./internal/store/

## e2e-serve: boot a real jawsd on a free port, drive a seeded jawsload
## burst that overwhelms the small queue (some 429s expected, zero 5xx
## tolerated), then drain via /quitquitquit. CI runs this as its own job.
e2e-serve:
	./scripts/e2e_serve.sh

## fuzz-smoke: a short burst on every fuzz target (Go runs one -fuzz
## pattern per invocation, hence the repetition).
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzRoundTrip -fuzztime 10s ./internal/morton/
	$(GO) test -run xxx -fuzz FuzzCubeRange -fuzztime 10s ./internal/morton/
	$(GO) test -run xxx -fuzz FuzzLoad -fuzztime 10s ./internal/workload/
	$(GO) test -run xxx -fuzz FuzzGenerate -fuzztime 10s ./internal/workload/
	$(GO) test -run xxx -fuzz FuzzParseSpec -fuzztime 10s ./internal/fault/
	$(GO) test -run xxx -fuzz FuzzParsePolicySpec -fuzztime 10s ./internal/sched/
	$(GO) test -run xxx -fuzz FuzzDecodeQuery -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzGraphOps -fuzztime 10s -fuzzminimizetime 1s ./internal/jobgraph/
	$(GO) test -run xxx -fuzz FuzzPartitionReuse -fuzztime 10s -fuzzminimizetime 1s ./internal/query/
	$(GO) test -run xxx -fuzz FuzzWrap -fuzztime 10s ./internal/geom/
	$(GO) test -run xxx -fuzz FuzzFootprint -fuzztime 10s ./internal/geom/
	$(GO) test -run xxx -fuzz FuzzLRUKOps -fuzztime 10s -fuzzminimizetime 1s ./internal/cache/
	$(GO) test -run xxx -fuzz FuzzScanTrace -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/
	$(GO) test -run xxx -fuzz FuzzLoadArtifact -fuzztime 10s -fuzzminimizetime 1s ./internal/bench/

## bench-sched: the scheduling benches used to bound instrumentation
## overhead (compare against a pre-change baseline), and the eviction
## index against the reference's scan as the resident set grows (both
## columns from this one tree: the ref rows run the scan kept in
## lruk_ref_test.go), and the pre-processor at the sizes the traces carry
## (17, 59, 128 points) and at 1 000, its packed-key sort against the
## comparator it replaced (the ref rows force the oversize-key path: the
## reference, which no shipped workload takes), and the scheduler's share
## of a replay-warm run — a recorded warm run's enqueues, decisions and
## run ends, replayed under plain JAWS and under the tail-policy stack
## (ns/decision).
bench-sched:
	$(GO) test -run xxx -bench BenchmarkFig10Schedulers -benchtime 2x .
	$(GO) test -run xxx -bench BenchmarkLRUKMiss -benchtime 20000x ./internal/cache/
	$(GO) test -run xxx -bench BenchmarkPreProcess -benchtime 20000x ./internal/query/
	$(GO) test -run xxx -bench BenchmarkDecideTailStack -benchtime 20x ./internal/sched/

## profile-replay: CPU and allocation profiles of the replay-cold workload's
## body (BenchmarkReplayCold: 20 replays of the BENCH_main.json trace, fresh
## system each), printed cumulative — the profile tables of EXPERIMENTS.md in
## one command (two runs: recording every allocation would bend the CPU
## profile; the object counts are per 3 replays, one of them b.N's probe) —
## then the in-use heap of a warm System by site (BenchmarkReplayWarm: the
## replay-warm trace, a set-up Run and 2 more on one System, which the
## benchmark keeps alive for the profile the binary writes on exit): what
## replay-warm's live_heap_mb measures. Binary and profiles go to
## PROFILE_DIR, outside the tree.
PROFILE_DIR ?= $(or $(TMPDIR),/tmp)/jaws-profile
profile-replay:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run xxx -bench ReplayCold -benchtime 20x -o $(PROFILE_DIR)/jaws.test -cpuprofile $(PROFILE_DIR)/cpu.prof .
	$(GO) test -run xxx -bench ReplayCold -benchtime 2x -o $(PROFILE_DIR)/jaws.test -memprofile $(PROFILE_DIR)/mem.prof -memprofilerate 1 .
	$(GO) tool pprof -top -cum -nodecount 40 $(PROFILE_DIR)/jaws.test $(PROFILE_DIR)/cpu.prof
	$(GO) tool pprof -sample_index=alloc_objects -top -cum -nodecount 40 $(PROFILE_DIR)/jaws.test $(PROFILE_DIR)/mem.prof
	$(GO) test -run xxx -bench ReplayWarm -benchtime 2x -o $(PROFILE_DIR)/jaws.test -memprofile $(PROFILE_DIR)/warm.prof -memprofilerate 1 .
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount 30 $(PROFILE_DIR)/jaws.test $(PROFILE_DIR)/warm.prof

## profile-serve: the per-site allocation profile of served requests — a
## jawsd built into PROFILE_DIR and booted with the serve workloads' flags
## under GODEBUG=memprofilerate=1, warmed with jawsload -steps 1, then the
## objects 10 000 more requests allocate, by site (pprof -base between two
## heap profiles).
profile-serve:
	PROFILE_DIR=$(PROFILE_DIR) GO=$(GO) ./scripts/profile_serve.sh

## bench: measure this tree into a versioned BENCH_*.json artifact
## (byte-deterministic for a fixed config; see DESIGN.md §11), written
## under bench-artifacts/ so it is never mistaken for a committed one.
bench:
	@mkdir -p bench-artifacts
	$(GO) run ./cmd/jawsbench -bench-out bench-artifacts/BENCH_pr.json

## bench-wall: the wall-clock benchmark BENCHMARK.json names — a real
## jawsd under load and trace replays, five workloads (benchmark/README.md).
## Arguments pass through, e.g. make bench-wall ARGS='-workload serve-bulk -trace 1'.
ARGS ?=
bench-wall:
	bash benchmark/run.sh $(ARGS)

## bench-wall-compare: compare two result files written by
## `bash benchmark/run.sh -runs N -out FILE`, one per commit. Usage:
##   make bench-wall-compare BASE=base.json HEAD=head.json
bench-wall-compare:
	bash benchmark/run.sh -compare $(BASE) $(HEAD)
