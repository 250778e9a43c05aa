#!/bin/sh
# Tier-1 gate: build, vet, full tests, and the whole module — the root
# differential suite at parallelism 4 included — under the race detector.
# Mirrors `make ci` for environments without make.
set -eux

go build ./...
go vet ./...
# Every Go file is gofmt-clean (the benchmark's build directory is not ours).
test -z "$(gofmt -l . | grep -v '^.bench_build/')"
# One of each in the serving layer: the one LRU lives in internal/cache and
# nothing else hand-rolls a list, and the byte governor stays folded into the
# service governor.
test -z "$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'"container/list"' . | grep -v '^./internal/cache/')"
test ! -e internal/memory
# One cost model: the plan tree is its only input, so none of the input-struct
# model's types or its three input derivations may come back in production
# code.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'SelectionInputs|JoinInputs|deriveInputs|deriveJoinInputs|ModelInputs|paperInputs' .)"
# An executor without switches: the plan tree is the executor's only input, so
# none of the five ablation options (or the zone-index scan only one of them
# reached) may come back in production code, and the join has one partitioning
# scan loop — the in-memory build is the Grace build with every partition
# resident — so internal/operators windows the key column in one place.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'DisableMultiColumn|ForceBitmapPositions|UseZoneIndex|SkipOutputIteration|DisableFusion|ZonePositions' .)"
test "$(cat $(ls internal/operators/*.go | grep -v _test.go) | grep -c 'key\.Window(')" -le 1
# One output path: count and checksum are folded chunk by chunk as the result
# is written (rows.Result.Seal), so the second pass over a finished result may
# not come back.
test -z "$(grep -rl --include='*.go' --exclude-dir=.bench_build 'drainResult' .)"
# One result through pass B: a probe deferred to a spilled partition emits a
# placeholder row that its partition fills in place, so neither the anchors
# and left values of a second result nor its staging and counting sort may
# come back in production code.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'spillAnchors|spillLeft|stagedOff|stagedCnt|bySeq' .)"
# A result is its chunks: each emission site writes one chunk of exactly its
# row count and partials merge by listing chunks, so neither a MERGE that
# copies gathered vectors into the result nor a result column that is
# reserved, regrown or concatenated may come back in production code.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'MergeChunk|NewMerger|valBufs|func \(r \*Result\) (Append|Reserve)\b' .)"
# A shard partial is columns on the wire: its arrays are parsed by hand
# straight into columns and merged as columns, so no row-major [][]int64 may
# come back in the coordinator's production files, and neither the fan-out nor
# the gather may decode a reply body as JSON (the explain merge and the /stats
# sum decode JSON documents, which are not query replies).
test -z "$(ls internal/service/coord_*.go | grep -v _test.go | xargs grep -l '\[\]\[\]int64')"
test -z "$(awk '/^func \(c \*Coordinator\) (fanout|gather)\(/,/^}/' internal/service/coord_fanout.go \
	| grep 'json.Unmarshal')"
# Two caches, one tier each: every served request builds its plan and runs it
# once, so neither a plan cache nor the morsel re-carving only a re-run plan
# reached may come back in production code; an evicted join build is dropped,
# not demoted to disk; the result cache has no zero-row tier and no cost
# threshold; and the grant slice is a constant, not a knob.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'planCache|PlanCacheEntries|AdaptiveMorselsPerWorker|skewBits|EnableDemotion|WriteDemoted|LoadDemoted|ResultCacheMinCostUS|GrantSliceMicros|negCap' .)"
# A spilled partition is its stored key column: pass B rebuilds a cold
# partition by rescanning the key column, so no query writes a file — neither
# the spill files, their frames, their sweep and directory, the write-fault
# hooks, the sort their interleaved frames needed nor the write-time counters
# may come back in production code, and no production file of the operators
# or the plan executor imports "os".
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'CreateTemp|SweepSpillDir|SpillFilePrefix|SpillDirName|coldWriter|readEntryFrames|writeFrame|WriteOutcome|ShortWrite|sortGroups|SpillWriteNanos|OrphanedSpillFiles' .)"
test -z "$(ls internal/operators/*.go internal/plan/*.go | grep -v _test.go | xargs grep -l '"os"')"
# Production code is what production runs: a served database is read-only, so
# neither cache tracks projection generations; a multi-column carries no
# descriptor; and capabilities no operator calls (the morsel position concat,
# the generic AND fallback, the compressed range sum, the position-AND micro
# and the shard row offset) may not come back in production code. The scalar
# references no query runs live beside the tests that call them.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'InvalidateProjection|currentLocked|DeleteFunc|func Concat|andGeneric|SumRange|sumRange|SetDescriptor|PositionIntersectMicro|GlobalRowStart' .)"
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'filterScalar|filterAtScalar|ValuesReaccess|ExtendChunk\(' .)"
# One set, one source, one solver for the cost model's constants: model.Paper
# is the one definition (no word size nothing reads), the observation fit is
# the one source of a host's constants (no micro-loops), and it is one exact
# non-negative least-squares solve that derives its workload from the DB
# itself — none of what they replaced may come back in production code.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'MeasureConstants|measure(FC|TICCOL|TICTUP|BIC)|BitPosList|WordSize|solve4|customerRows' .)"
# A served request has one plan: the service builds it, prices it once (its
# cost and a join's build-side bytes in one walk), admits on that price and
# runs it, and an explain is that request run observed — so the service's
# production files call none of the estimators that build a second tree, the
# catalog walk for a join's bytes, the explain entry points that build a tree
# of their own, or a validation building already does; and neither the spill
# plan setup, the estimate helper, the validation method nor the row-wise
# result copy no reply reads may come back in production code.
test -z "$(ls internal/service/*.go | grep -v _test.go \
	| xargs grep -lE 'EstimateSelectCost|EstimateJoinCost|EstimateJoinMemory|ExplainTraced|ExplainJoinTraced|Validate\(')"
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'spillJoinPlan|costUS|func \(q SelectQuery\) Validate|func \(r \*Result\) Rows' .)"
# One chooser: model.Constants.Choose builds a request's candidate plans,
# prices each once and picks, inside the served request's own plan build and
# behind the library advisors and csmodel alike — so the service's production
# files call no advisor, and neither the pick-by-index helper, the
# per-strategy estimators nor the advisor's pricing helper may come back in
# production code.
test -z "$(ls internal/service/*.go | grep -v _test.go \
	| xargs grep -lE 'Advise(Parallel|Join|With)?\(')"
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'Cheapest|EstimateSelectCost|EstimateJoinCost|func \(db \*DB\) price\(' .)"
# A capped run allocates the rows it shows: a chunk past the cap is folded out
# of pooled scratch, so the spare chunk a result kept for its next chunk may
# not come back in internal/rows; and a morsel's vectors are its worker's for
# one run, so no production file of the plan executor pools them across runs
# (that held 7-20 % more memory on the uncapped workloads).
test -z "$(ls internal/rows/*.go | grep -v _test.go | xargs grep -l 'spare')"
test -z "$(ls internal/plan/*.go | grep -v _test.go | xargs grep -l 'sync\.Pool')"
go test ./...
go test -race ./...
# The guard against a second composition (Advise == est_cost_us == EXPLAIN's
# modeled total on 21 selection shapes and 12 joins, hot and cold) and the
# estimate-vs-served-plan race, named so that a -run filter elsewhere cannot
# drop them.
go test -race -run 'TestAdviseMatchesExplain$' .
go test -race -count=5 -run 'TestEstimateRacesServedPlans$' ./internal/service/
# The one reference: every strategy x parallelism against internal/oracle's
# row-at-a-time loops on seeded random queries (repeated filter columns,
# selections and aggregations), and a column file whose blocks sit in the wrong
# slot returning ErrCorruptFile instead of panicking. Named for the same reason.
go test -race -run 'TestRandomQueriesAgainstOracle$' .
go test -race -run 'TestMisplacedBlock|TestOpenRejectsUntiledIndex' ./internal/storage/
# Pass B of the Grace join — placeholders filled in place, dropped or expanded
# — against the in-memory join at every budget, worker count, partition count,
# strategy and cap, and through the service's governor. Named for the same
# reason.
go test -race -run 'TestJoinSpillPassB|TestJoinSpillMatchesInMemory$' ./internal/core/
go test -race -run 'TestDifferentialSpillJoin$' ./internal/service/
# No query writes a file: spilled joins at every budget, worker count and
# strategy, through the library and a governed server, leave the database
# directory as they found it.
go test -race -run 'TestSpilledJoinWritesNothing$' .
# An evicted join build is dropped and rebuilt on its next miss: replies stay
# identical and no file is left in the spill directory. Named for the same
# reason.
go test -race -run 'TestBuildCacheEvictionLeavesNoFiles$' ./internal/service/
# Concurrent misses on a key whose table is too large to retain share one
# build: every waiter takes the flight's table instead of rebuilding in turn.
go test -race -run 'TestBuildCacheSingleFlightOversize$' ./internal/operators/
# Chunk-exact results: caps on every side of a chunk boundary against the
# oracle (selections, joins in memory and spilled, pass B's exceptions), the
# result cache charged for every array a chunk list reaches, a large select
# allocating 1.6x its result at most, and an RLE window allocating its triples
# once. Named for the same reason.
go test -race -run 'TestChunkBoundariesAgainstOracle$' ./internal/core/
# Both forms of the join's table — dense (an offsets array indexed by key −
# min) and hashed — end to end: inner key domains on either side of the
# threshold, at the int64 extremes and sparse, with outer keys outside the
# domain, at every strategy, worker count and budget, byte for byte the
# nested-loop oracle's. Named for the same reason.
go test -race -count=3 -run 'TestJoinDensitySweepAgainstOracle$' ./internal/core/
# Past the cap a chunk is written into scratch pooled process-wide and folded:
# capped requests on concurrent goroutines, wide and narrow in turn, every one
# oracle.Capped's. Named for the same reason.
go test -race -count=5 -run 'TestCappedScratchNeverLeaks$' ./internal/core/
go test -race -run 'TestResultCacheChargesChunks$' ./internal/service/
go test -race -run 'TestSelectResultBytes$' .
go test -race -run 'TestRLEWindowAllocatesTriplesOnce$' ./internal/storage/
# One gather: a bit-string or list descriptor reaches the kernels as words or
# direct indexes, so no production Extract or gather body may walk a
# descriptor run by run, and both gathers are fuzzed against per-position
# ValueAt for all three encodings (seeds in the test and under testdata/fuzz).
test -z "$(grep -lE 'RunIter|\.Runs\(\)' internal/kernels/mask.go internal/encoding/gather.go \
	internal/storage/gather.go internal/positions/piece.go)"
go test -run '^$' -fuzz 'FuzzGatherAgainstValueAt$' -fuzztime=5s ./internal/storage/
# One filter: a conjunction is compiled once, when the plan is built, and
# FilterAt reads its candidate set the way the gather reads a descriptor, so no
# density policy, dense/sparse fork, fused-filter wrapper or per-morsel compile
# may come back in production code; no Filter or FilterAt body walks positions
# run by run; and FilterAt is fuzzed against the scalar references for all
# three encodings (seeds in the test and under testdata/fuzz).
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'AdaptiveFilterAt|FilterAtChoice|filterAtSparse|filterAtDenseCutoff|FilterFused|FilterAtFused|compileConj' .)"
test -z "$(awk '/^func \(m \*[A-Za-z]+\) (Filter|FilterAt)\(/,/^}/' internal/encoding/*mini.go \
	| grep -E 'RunIter|\.Runs\(\)')"
go test -run '^$' -fuzz 'FuzzFilterAtAgainstScalar$' -fuzztime=5s ./internal/encoding/
# One form of a conjunction: one closed interval minus its != exceptions (a
# lone != is the interval that wraps round the int64 range), so neither a
# per-operator kernel body, a second scalar matcher nor the bit-vector
# filter's per-value path may come back in production code.
test -z "$(grep -rlE --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build \
	'CompileMatcher|type Matcher|pred\.Matcher|kernelLt|kernelGe|kernelEq|kernelNe|kernelBetween|orStrings' .)"
# The governor's wait loop: cancel racing a waiter's park (the lost wakeup
# shows only under the race detector's scheduling, about one run in two) and
# the three-resource invariant under 64 goroutines.
go test -race -count=5 -run 'TestGovernor' ./internal/service/
# Capped and uncapped requests for one shape at once: whichever runs and
# whichever entry is resident, every reply holds the oracle's leading rows,
# count and sums.
go test -race -count=5 -run 'TestResultCacheConcurrentLimits$' ./internal/service/
# The wire: a shard answering 200 with a spoiled partial (checksum, truncation,
# Content-Type, array count and length, trailing bytes) gets a 502 naming it
# and leaks nothing; every client reply of an engine and of a coordinator at
# 1, 2 and 4 shards is byte for byte encoding/json's; and the partial decoder
# either round-trips a body exactly or refuses it (seeds in the test and under
# testdata/fuzz). Named for the same reason.
go test -race -run 'TestCoordinatorRejectsGarbagePartial$|TestClientRepliesByteIdentical$' ./internal/service/
go test -run '^$' -fuzz 'FuzzDecodePartial$' -fuzztime=5s ./internal/service/

# The calibration acceptance test failed about one run in four while it
# fitted wall-clock timings; it fits synthetic observations now. Prove it.
go test -run 'TestCalibrationReducesError$' -count=20 ./internal/bench

# The extended fault-injection suite (shed-under-saturation with slow-IO
# faults) sits behind the faultinject build tag
# so the hot path carries no test-only hooks by default; run it explicitly.
go test -race -tags faultinject -run TestFaultinject -count=1 ./internal/service/

# Smoke-run the repository's benchmark (BENCHMARK.json) through its contract
# command: a short paper_select window whose results the oracle must confirm.
# Not a perf gate — two seconds measure nothing; the check is "correct":true.
bash cmd/csperf/bench.sh --workload paper_select --seed 1 --seconds 2 \
	| tail -n 1 | grep -q '"correct":true'
# The same for paper_join: the join oracle, the Grace-spill class included.
bash cmd/csperf/bench.sh --workload paper_join --seed 1 --seconds 2 \
	| tail -n 1 | grep -q '"correct":true'
# And for the served workloads, the ones whose requests take the advised path:
# serve_hot (advised shapes answered from the result cache), serve_cold (half
# its requests advised misses) and coord_mixed (through the coordinator).
for w in serve_hot serve_cold coord_mixed; do
	bash cmd/csperf/bench.sh --workload $w --seed 1 --seconds 2 \
		| tail -n 1 | grep -q '"correct":true'
done

# The tuple-construction micro-benchmarks report allocations; printed here so
# that a change which brings per-chunk or per-tuple allocation back shows in
# the log of the PR it lands in (chain: a few hundred allocs/op for 16 chunks,
# all the scan layer's; AddBatch, SPCChunk — kernels and mask belong to the
# compiled leaf — and CompactByMask: 0).
go test -run xxx -bench 'BenchmarkCompactByMask$' -benchtime 1x ./internal/kernels
# The gathers beside it, into destinations sized beforehand: a mini-column's
# Extract per encoding and the block-pinned GatherAt, under a 50 % and a 2 %
# bit-string, an ascending list and two long ranges. 0 allocs/op everywhere
# but bit-vector data under a list or ranges, which allocates the descriptor's
# words (1 alloc/op, 8 kB a chunk).
go test -run xxx -bench 'BenchmarkExtract(Plain|RLE|BV)$' -benchtime 20x ./internal/encoding
# The filters beside them: FilterAt per encoding under each candidate form over
# a three-block window — one range and part of one, bit-strings at 50, 2 and
# 0.1 %, lists of 64 and 2,048 — allocating its output and nothing per word,
# run or position (plain: 2 allocs/op everywhere); and a bit-vector chunk
# decompressed word at a time into a sized destination (0 allocs/op).
go test -run xxx -bench 'Benchmark(FilterAt(Plain|RLE|BV)|DecompressBV)$' -benchtime 20x ./internal/encoding
go test -run xxx -bench 'BenchmarkGatherAtPlain$' -benchtime 20x ./internal/storage
# The one interval kernel per operator over 64 Ki values, random and sorted
# (0.7 to 1.5 ns a value for every operator on a 2-CPU Xeon; all reads no
# value).
go test -run xxx -bench 'BenchmarkKernel$' -benchtime 200x ./internal/pred
go test -run xxx -bench 'BenchmarkEMPipelinedChain[24]Cols$' -benchtime 1x ./internal/datasource
go test -run xxx -bench 'Benchmark(AggAddBatchSortedKeys|SPCChunk)$' -benchtime 1x ./internal/operators
# The join's hash side is flat arrays and its probe reserves before it fills,
# so neither allocates per key: a build of the 1.5k-row inner table is 15 to
# 31 allocations (it was 1,537 with a map of position lists) — 56 to 77 kB
# over customer's dense custkeys, 115 to 137 kB over the sparse copy's, whose
# slot array the dense form's offsets replace (the sparse copy's first case
# also reads its freshly written blocks: about 150 kB and 27 allocations) —
# and a probe of the 15k-row outer table 26 to 28 (it was 105 to 129, three
# times the bytes).
# Beside them the Grace-spill join end to end at one worker under a quarter of
# its estimate: every probe waits for pass B, which rebuilds the cold partition
# from the stored key column and fills placeholder rows in place (scale 0.01:
# about 0.9 to 1.05 MB and 85 to 111 allocations; 1.03 to 1.16 MB and 105 to
# 135 while the partition went through a temp file; at the benchmark's scale
# 0.1, TestJoinSpillBytesPerOp bounds the bytes at 1.7 times the in-memory
# single-column join's).
go test -run xxx -bench 'BenchmarkJoin(Build|Probe|Spill)$' -benchtime 1x .
# What a request that keeps 100 rows allocates, beside the same request
# uncapped, per strategy and parallelism, selections of 150k rows and joins of
# 75k, at 1024-row and the default 64Ki-row chunks: the scan layer's few kB a
# chunk and one set of chunk-wide vectors per worker, not the result (LM 201 kB
# at one worker and 64Ki-row chunks; 1.7 MB while each morsel wrote its
# chunks whole and made its own vectors).
go test -run 'TestCappedSelectAllocs$' -v ./internal/core | grep 'kB a request'
# What a served request allocates beside it: a result-cache hit 2 (its reply),
# named or advised; a selection miss and a join miss about 100 and 70 on the
# service's test dataset under a named strategy (118 and 98 while a miss
# priced a second tree of its own and walked the catalog again for a join's
# bytes), about 155 and 130 advised (an advised hit was 75 and 83 while the
# advisor ran before the lookup).
go test -run 'TestServedRequestAllocs$' -v ./internal/service | grep 'allocations per'
# The serving stack's code lines (non-blank, non-comment, non-test: service,
# buffer pool, the shared LRU, the build cache), printed next to the
# allocation counts so that growth shows in the log of the PR that causes it
# (3,223 before six LRUs, two governors and the coordinator were folded;
# 3,092 before the plan cache, the demoted build tier and the zero-row and
# cost-gated result tiers were deleted; 2,861 before the caches' projection
# generations and the LRU's deletes were; 2,740 before a served request's
# estimate, explain and spill setup became its one plan; 2,720 before the
# advisors became one chooser).
ls internal/service/*.go internal/buffer/*.go internal/cache/*.go \
	internal/operators/buildcache.go | grep -v _test.go | xargs cat \
	| grep -v '^\s*$' | grep -v '^\s*//' | wc -l
# The same for the model stack (the cost model, the advisors, EXPLAIN and the
# plan builders: 1,497 before PR 17 deleted the input-struct composition).
# 1,133 before the micro-measured constants, the word size and the ridge
# solver were deleted; 1,048 before a served request's estimate, explain and
# spill setup became its one plan; 1,032 before the advisors became one
# chooser; 1,030 before the memory model priced the dense table form.
ls internal/model/*.go advise.go advise_join.go explain.go internal/core/builders.go \
	| grep -v _test.go | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
# And for the executor stack (the strategies' entry points, the plan executor,
# the data sources, the radix/Grace build, the block reader and the encodings:
# 4,301 before PR 18 deleted the ablation options, the zone-index scan and the
# second build; 3,914 before adaptive morsel re-carving and the demoted build
# files were deleted; 3,736 before the spill files were; 3,564 before the
# range sums, the run wrappers and the scalar references no query runs were
# deleted or moved into test files; 3,347 before the bit-vector filter lost its
# per-value path; 3,331 before a served request's estimate, explain and spill
# setup became its one plan; 3,320 before a morsel's vectors became its
# worker's for the run; 3,358 before the join table's dense form).
ls internal/core/core.go internal/core/join.go internal/plan/*.go internal/datasource/*.go \
	internal/operators/radix.go internal/operators/spill.go internal/storage/column.go \
	internal/storage/gather.go internal/encoding/*.go \
	| grep -v _test.go | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
# Beside it the join and aggregation operators alone (internal/operators, the
# build cache included: 833 before the join table's dense form).
ls internal/operators/*.go | grep -v _test.go | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l
# And for the predicates (585 before a conjunction became one interval minus
# its exceptions: one kernel body, one scalar test, one selectivity formula).
ls internal/pred/*.go | grep -v _test.go | xargs cat | grep -v '^\s*$' | grep -v '^\s*//' | wc -l

# Smoke-run EXPLAIN end to end: generate a small dataset, print an annotated
# physical plan (modeled vs observed per node) for a fused-scan query.
ci_explain_dir=$(mktemp -d)
trap 'rm -rf "$ci_explain_dir"' EXIT
go run ./cmd/csgen -dir "$ci_explain_dir" -scale 0.001 -seed 7
go run ./cmd/csquery -dir "$ci_explain_dir" -proj lineitem \
	-out shipdate,linenum -where 'shipdate>=100,shipdate<400,linenum<5' \
	-strategy lm-parallel -parallelism 2 -explain | grep -q 'fused x2'
go run ./cmd/csquery -dir "$ci_explain_dir" -proj lineitem \
	-where 'shipdate<300' -groupby returnflag -sum quantity \
	-strategy em-pipelined -explain | grep -q 'AGG sum(quantity)'
# The row cap through the library, no service in between: three rows kept and
# printed, every row counted.
go run ./cmd/csquery -dir "$ci_explain_dir" -proj lineitem -out shipdate,linenum \
	-where 'shipdate<400' -strategy em-parallel -parallelism 2 -limit 3 \
	| grep -q 'rows total'

# Smoke-run join EXPLAIN: the radix-build join plan must render both join
# nodes with modeled vs observed stats (and the resolved partition count).
go run ./cmd/csquery -dir "$ci_explain_dir" -proj orders -join customer \
	-leftkey custkey -rightkey custkey -out shipdate -rightout nationcode \
	-where 'custkey<200' -rightstrategy right-singlecolumn -parallelism 2 \
	-explain | grep -q 'JOINBUILD'

# Smoke-run the constants' one source: Table 2's "this host" column and
# csmodel's refit both fit the mixed workload's observations on a small
# generated dataset and must exit 0, each in its own directory (bench.Setup
# regenerates a directory whose marker does not match, so neither may share
# the dataset above). Their output goes to the log.
ci_table2_dir=$(mktemp -d)
go run ./cmd/csbench -dir "$ci_table2_dir" -exp table2 -scale 0.002
rm -rf "$ci_table2_dir"
ci_calib_dir=$(mktemp -d)
go run ./cmd/csmodel -dir "$ci_calib_dir" -scale 0.002 -calibrate
rm -rf "$ci_calib_dir"

# Smoke-run the join advisor: the Section 4.3 cost terms pick the inner-table
# strategy and print all three predicted costs.
go run ./cmd/csquery -dir "$ci_explain_dir" -proj orders -join customer \
	-leftkey custkey -rightkey custkey -out shipdate -rightout nationcode \
	-where 'custkey<200' -advise | grep -q 'advisor chose right-'

# Smoke-run the query service end to end: start csserve on the generated
# data, issue queries and joins over HTTP (using the binary's built-in
# client so CI needs no curl), and require the repeated identical query to
# hit the result cache, a reshaped join to hit the shared build cache, and
# a repeated identical join to be served from cached result bytes.
go build -o "$ci_explain_dir/csserve" ./cmd/csserve
"$ci_explain_dir/csserve" -dir "$ci_explain_dir" -addr 127.0.0.1:18977 \
	-worker-budget 2 -max-concurrent 4 &
ci_serve_pid=$!
trap 'kill "$ci_serve_pid" 2>/dev/null; rm -rf "$ci_explain_dir"' EXIT
for i in $(seq 1 50); do
	if "$ci_explain_dir/csserve" -get http://127.0.0.1:18977/stats >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done
ci_query_body='{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400","linenum<7"],"strategy":"lm-parallel"}'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18977/query -data "$ci_query_body" \
	| grep -q '"row_count"'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18977/query -data "$ci_query_body" \
	| grep -q '"result_cache_hit":true'
ci_join_body='{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<200"]}'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18977/join -data "$ci_join_body" \
	| grep -q '"build_cache_hit":false'
# A different left predicate is a new result shape but the same hash side:
# it must miss the result cache yet reuse the shared build.
ci_join_body2='{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<150"]}'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18977/join -data "$ci_join_body2" \
	| grep -q '"build_cache_hit":true'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18977/join -data "$ci_join_body" \
	| grep -q '"result_cache_hit":true'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18977/explain -data "$ci_join_body" \
	| grep -q 'JOINBUILD'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18977/stats \
	| grep -q '"peak_workers_in_use":'

# Memory-governance smoke: restart csserve under a byte budget with the
# allocation-pressure failpoint armed (the CI dataset is far smaller than
# the flag's 1 MiB minimum, so the failpoint is what deterministically
# denies the in-memory reservation). The governed join must run in Grace
# spill mode and report it without writing into the database directory, /stats
# must expose the governor block, and the health endpoints must serve.
kill "$ci_serve_pid" 2>/dev/null
"$ci_explain_dir/csserve" -dir "$ci_explain_dir" -addr 127.0.0.1:18978 \
	-worker-budget 2 -memory-budget-mb 1 \
	-faults mem.reserve=error &
ci_serve_pid=$!
for i in $(seq 1 50); do
	if "$ci_explain_dir/csserve" -get http://127.0.0.1:18978/healthz >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done
"$ci_explain_dir/csserve" -get http://127.0.0.1:18978/readyz | grep -q '"ready":true'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18978/join -data "$ci_join_body" \
	| grep -q '"spilled":true'
test ! -e "$ci_explain_dir/.spill"
"$ci_explain_dir/csserve" -get http://127.0.0.1:18978/stats \
	| grep -q '"spilled_joins":1'
# An explained join is the join's request run observed: it takes the same
# spill-mode grant and renders the Grace build's spill line.
"$ci_explain_dir/csserve" -post http://127.0.0.1:18978/explain -data "$ci_join_body" \
	| grep -q 'spill:'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18978/stats \
	| grep -q '"peak_reserved":'

# Smoke-run calibration: refit the Table 2 CPU constants from the mixed
# workload's observed per-node times; the report must show the refit. And the
# paper-scale mode (no -dir): the same builders' plans priced over a literal
# statistics table.
go run ./cmd/csmodel -dir "$ci_explain_dir" -calibrate | grep -q 'calibrated over'
go run ./cmd/csmodel | grep -q 'LM-pipelined$'

# Sharded-serving smoke: generate a 2-shard layout, boot one engine per
# shard plus the scatter-gather coordinator over them, and drive a
# selection, an aggregation, a join and an explain through the coordinator.
# The stats snapshot must show requests fanning out over both shards.
ci_shard_root="$ci_explain_dir/sharded"
go run ./cmd/csgen -dir "$ci_shard_root" -scale 0.001 -seed 7 -shards 2
# The calibrate smoke above regenerates $ci_explain_dir from scratch
# (bench.Setup removes the dir on marker mismatch), which deletes the
# csserve binary built into it — rebuild it.
go build -o "$ci_explain_dir/csserve" ./cmd/csserve
"$ci_explain_dir/csserve" -dir "$ci_shard_root/shard-000" -addr 127.0.0.1:18981 \
	-worker-budget 2 -max-concurrent 4 &
ci_shard0_pid=$!
"$ci_explain_dir/csserve" -dir "$ci_shard_root/shard-001" -addr 127.0.0.1:18982 \
	-worker-budget 2 -max-concurrent 4 &
ci_shard1_pid=$!
"$ci_explain_dir/csserve" -coordinator -dir "$ci_shard_root" -addr 127.0.0.1:18980 \
	-shard-endpoints http://127.0.0.1:18981,http://127.0.0.1:18982 &
ci_coord_pid=$!
trap 'kill "$ci_serve_pid" "$ci_shard0_pid" "$ci_shard1_pid" "$ci_coord_pid" 2>/dev/null; rm -rf "$ci_explain_dir"' EXIT
for i in $(seq 1 50); do
	if "$ci_explain_dir/csserve" -get http://127.0.0.1:18980/readyz >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done
"$ci_explain_dir/csserve" -post http://127.0.0.1:18980/query -data "$ci_query_body" \
	| grep -q '"row_count"'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18980/query \
	-data '{"projection":"lineitem","groupby":"returnflag","aggcol":"quantity","agg":"avg","where":["shipdate<1500"],"limit":-1}' \
	| grep -q '"row_count"'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18980/join -data "$ci_join_body" \
	| grep -q '"row_count"'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18980/explain -data "$ci_query_body" \
	| grep -q 'shard 1'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18980/stats \
	| grep -q '"fanned_out":'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18980/stats \
	| grep -q '"shard_requests":'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18980/readyz | grep -q '"ready":true'

# Observability smoke: the coordinator serves Prometheus text with the
# request-latency histogram and the per-shard fan-out counter, and a
# `"trace": true` query returns an inline span tree whose grafted shard
# sub-trees carry per-plan-node spans (the DS1 scan leaf).
"$ci_explain_dir/csserve" -get http://127.0.0.1:18980/metrics \
	| grep -q 'cs_request_seconds_bucket'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18980/metrics \
	| grep -q 'cs_shard_requests'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18981/metrics \
	| grep -q 'cs_request_seconds_bucket'
# A fresh predicate so the shard result caches (warmed by the smoke above)
# miss and the trace shows real execution, not just result_cache.lookup hits.
ci_traced_body='{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<390","linenum<7"],"strategy":"lm-parallel","trace":true}'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18980/query -data "$ci_traced_body" \
	| grep -q 'DS1 scan'

# Key-partitioned smoke: regenerate the 2-shard layout hash-partitioned on
# the orders/customer join key. The join must fan out shard-local with no
# inner replication (the copartitioned_joins counter), and a group-by on the
# partition key must take the finalized-row pushdown instead of the
# statistics wire (the finalized_aggs counter).
ci_keypart_root="$ci_explain_dir/keypart"
go run ./cmd/csgen -dir "$ci_keypart_root" -scale 0.001 -seed 7 -shards 2 \
	-partition-key orders.custkey,customer.custkey
"$ci_explain_dir/csserve" -dir "$ci_keypart_root/shard-000" -addr 127.0.0.1:18984 \
	-worker-budget 2 -max-concurrent 4 &
ci_kp0_pid=$!
"$ci_explain_dir/csserve" -dir "$ci_keypart_root/shard-001" -addr 127.0.0.1:18985 \
	-worker-budget 2 -max-concurrent 4 &
ci_kp1_pid=$!
"$ci_explain_dir/csserve" -coordinator -dir "$ci_keypart_root" -addr 127.0.0.1:18983 \
	-shard-endpoints http://127.0.0.1:18984,http://127.0.0.1:18985 &
ci_kpcoord_pid=$!
trap 'kill "$ci_serve_pid" "$ci_shard0_pid" "$ci_shard1_pid" "$ci_coord_pid" "$ci_kp0_pid" "$ci_kp1_pid" "$ci_kpcoord_pid" 2>/dev/null; rm -rf "$ci_explain_dir"' EXIT
for i in $(seq 1 50); do
	if "$ci_explain_dir/csserve" -get http://127.0.0.1:18983/readyz >/dev/null 2>&1; then
		break
	fi
	sleep 0.1
done
"$ci_explain_dir/csserve" -post http://127.0.0.1:18983/join -data "$ci_join_body" \
	| grep -q '"row_count"'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18983/stats \
	| grep -q '"copartitioned_joins":1'
"$ci_explain_dir/csserve" -post http://127.0.0.1:18983/query \
	-data '{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"min","limit":-1}' \
	| grep -q '"row_count"'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18983/stats \
	| grep -q '"finalized_aggs":1'
"$ci_explain_dir/csserve" -get http://127.0.0.1:18983/stats \
	| grep -q '"rowid_merges":'
