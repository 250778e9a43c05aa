# Tier-1 verification targets. `make ci` is the full gate: build, vet, the
# whole test suite, and the whole module under the race detector.

GO ?= go

.PHONY: ci build vet test race bench bench-json

ci: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The morsel-parallel executor, scheduler and partial-merge paths live under
# internal/; the root package's differential suite drives them (and each
# morsel's recycled buffers) at parallelism 4. Both run with the race detector.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# bench-json records the scan/gather kernel microbenchmarks as a JSON perf
# snapshot (name → ns/op, allocs/op; min of 3 runs). Not part of the tier-1
# gate — run it when touching a hot path and check in the updated
# BENCH_PR<N>.json so the perf trajectory stays diffable.
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	{ $(GO) test -run xxx -bench 'Filter|Gather|Extract|SumRange|And|BitmapRunIteration|Builder' \
		-benchtime 1x -count 3 ./internal/encoding ./internal/storage ./internal/positions ; \
	  $(GO) test -run xxx -bench 'FusedMultiPredicate' -benchtime 20x -count 3 . ; \
	  $(GO) test -run xxx -bench 'BenchmarkJoin(Build|Probe)$$' -benchtime 20x -count 3 . ; \
	  $(GO) test -run xxx -bench 'BenchmarkServer(JoinBuild(Cold|Cached)|ResultCacheHit)$$' \
		-benchtime 20x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkServerClosedLoop(Hit|Miss)$$' \
		-benchtime 5x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkCoordinatorOverhead(Direct|1Shard)$$' \
		-benchtime 20x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkCoordinatorClosedLoop[124]Shard$$' \
		-benchtime 5x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkJoinFanout(Replicated|Copartitioned)[124]Shard$$' \
		-benchtime 5x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkAggMerge(Stats|Finalized)[124]Shard$$' \
		-benchtime 5x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkServerQueryTrace(Off|On)$$' \
		-benchtime 20x -count 3 ./internal/bench ; \
	  $(GO) test -run xxx -bench 'BenchmarkSpan(Disabled|Enabled)Path$$|BenchmarkHistogramObserve$$' \
		-benchtime 1000x -count 3 ./internal/obs ; } \
		| $(GO) run ./cmd/benchjson -o $(BENCH_JSON)
