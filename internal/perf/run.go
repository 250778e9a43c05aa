package perf

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"

	"matstore"
)

// Config parameterizes one run of one workload.
type Config struct {
	Workload string
	// Seed seeds the request stream only; the data is always DataSeed.
	Seed int64
	// Seconds is the length of the timed window. The window ends at the
	// first pass boundary after it, and not before minOps ops.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics and
	// no end-to-end metric.
	Trace bool
	// Dir is where the run keeps its data and span file while it runs.
	Dir string

	// scale replaces Scale as the TPC-H scale factor (the tests' smoke runs).
	scale float64
	// corruptOracle makes the oracle disagree with every op (tests).
	corruptOracle bool
}

const (
	// minOps is the least number of ops a window measures, so that at least
	// twenty samples lie beyond p95.
	minOps = 400
	// setups is how many times an end-to-end run sets its workload up; setup_s
	// is their median. A traced run sets up once.
	setups = 3
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or median (0 otherwise). It
	// is printed beside the value, and left out of the driver's result line.
	N int `json:"-"`
	// NA marks a per-layer metric that has no meaning on this workload: it
	// reaches the driver as 0 and is left out of the printed table.
	NA bool `json:"-"`
}

// Result is the outcome of one run.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// FirstFailure describes the first failed op, for the report.
	FirstFailure string `json:"first_failure,omitempty"`
	// SpanFile is where a traced run wrote its spans.
	SpanFile string `json:"-"`
	// SpeedFactor is the host's median speed factor over the timed window
	// (speed.go): the end-to-end times are wall-clock times divided by it.
	SpeedFactor float64 `json:"-"`
}

// FailShare is failed ÷ attempted ops.
func (r *Result) FailShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// sample is one executed op of a window.
type sample struct {
	op  *Op
	out outcome
	// at is when the op was sent, on the speedometer's clock.
	at time.Duration
	// done is when it completed, since the window began, with the time the
	// speedometer took left out.
	done time.Duration
}

// warmupPasses is how many untimed passes precede the window: one fills the
// caches of a fixed-shape workload; the distinct-constant workloads get two,
// so the buffer pool and build cache are resident and the advisor, governor
// and result-cache eviction have all run.
func warmupPasses(workload string) int {
	if workload == ServeCold || workload == CoordMixed {
		return 2
	}
	return 1
}

// sampleChunk is how many samples the client records before it starts a new
// slice: the log then grows by small steps, never by copying what it holds, so
// the generator's own footprint rises evenly with the ops done.
const sampleChunk = 4096

// window runs whole passes of the schedule, one op after the other (a closed
// loop of one client): maxPasses of them, or with maxPasses 0 until seconds
// have elapsed and minOps ops are done. Between ops it lets the speedometer
// time the host. The samples come back in schedule order, in chunks.
func (e *env) window(sched *Schedule, seconds float64, minOps, maxPasses int, rec *Recorder, sp *speedometer) [][]sample {
	var (
		chunks [][]sample
		log    []sample
		id     int
	)
	start := time.Now()
	spent := sp.spent
	for passes := 0; ; passes++ {
		done := passes == maxPasses
		if maxPasses == 0 {
			done = time.Since(start).Seconds() >= seconds && id >= minOps
		}
		if done {
			break
		}
		pass := sched.NextPass()
		if pass == nil {
			break
		}
		for _, op := range pass {
			sp.tick()
			if len(log) == cap(log) {
				if len(log) > 0 {
					chunks = append(chunks, log)
				}
				log = make([]sample, 0, sampleChunk)
				e.logBytes.Add(sampleChunk * int64(unsafe.Sizeof(sample{})))
			}
			at := sp.since(time.Now())
			out := e.do(op, id, rec, start)
			log = append(log, sample{op: op, out: out, at: at,
				done: time.Since(start) - (sp.spent - spent)})
			id++
		}
	}
	sp.sample() // so that the last ops have a sample after them too
	return append(chunks, log)
}

// flatten joins the chunks of a window.
func flatten(chunks [][]sample) []sample {
	var samples []sample
	for _, c := range chunks {
		samples = append(samples, c...)
	}
	return samples
}

// atReferenceSpeed returns the latencies, in ms, of the ops that succeeded (a
// failed op misses any latency, and is counted in fail_share instead) and the
// time, in seconds, the window took from its first request to its last
// completion, both divided by the host's speed factor around each op: what
// they would have been on a quiet machine of the reference kind.
func atReferenceSpeed(samples []sample, sp *speedometer) (latsMS []float64, wallS float64) {
	latsMS = make([]float64, 0, len(samples))
	var prev time.Duration
	for _, s := range samples {
		f := sp.factorAt(s.at + s.out.lat/2)
		wallS += (s.done - prev).Seconds() / f
		prev = s.done
		if s.out.err == nil {
			latsMS = append(latsMS, float64(s.out.lat.Nanoseconds())/1e6/f)
		}
	}
	return latsMS, wallS
}

// oracleSample is how many distinct requests of a distinct-constant workload
// the oracle re-runs; fixed-shape workloads have every request checked.
const oracleSample = 64

// verify re-runs a seeded sample of the window's requests serially
// (EM-parallel, one worker, right-materialized) on a separate handle over the
// unsharded dataset and compares row count and checksum — on coord_mixed the
// shown rows too — with what every op of those requests returned. Because
// the expected result of a request does not depend on its strategy, checking
// every paper_select op also checks that all four strategies agree on every
// sweep point. It returns the number of failed ops (errors included) and a
// description of the first.
func (e *env) verify(samples []sample, seed int64, corrupt bool) (failed int, first string, err error) {
	db, err := matstore.Open(e.fullDir)
	if err != nil {
		return 0, "", err
	}
	defer db.Close()

	// One key per sample: a key is a JSON encoding, and serve_hot has
	// hundreds of thousands of samples.
	keyOf := make([]string, len(samples))
	var keys []string
	seen := map[string]bool{}
	for i, s := range samples {
		k := s.op.key()
		keyOf[i] = k
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	checked := seen // fixed-shape workloads: every request
	if e.workload == ServeCold || e.workload == CoordMixed {
		checked = map[string]bool{}
		r := rng{state: uint64(seed) ^ 0x6f7261636c65}
		for _, i := range r.perm(len(keys)) {
			if len(checked) == oracleSample {
				break
			}
			checked[keys[i]] = true
		}
	}

	type expect struct {
		rows     int
		checksum int64
		shown    uint64
	}
	wants := map[string]expect{}  // by request
	oracle := map[string]expect{} // by request with the strategy blanked: one oracle run serves all strategies
	note := func(s sample, msg string) {
		failed++
		if first == "" {
			first = fmt.Sprintf("%s: %s", s.op.key(), msg)
		}
	}
	for i, s := range samples {
		if s.out.err != nil {
			note(s, s.out.err.Error())
			continue
		}
		if !checked[keyOf[i]] {
			continue
		}
		want, ok := wants[keyOf[i]]
		if !ok {
			neutral := *s.op
			var limit int
			if neutral.Query != nil {
				q := *neutral.Query
				q.Strategy, limit = "", q.Limit
				neutral.Query = &q
			} else {
				j := *neutral.Join
				j.RightStrategy, limit = "", j.Limit
				neutral.Join = &j
			}
			neutral.SpillQuarter = false
			nk := neutral.key()
			if want, ok = oracle[nk]; !ok {
				res, sum, err := oracleRun(db, s.op)
				if err != nil {
					return 0, "", fmt.Errorf("oracle: %s: %w", keyOf[i], err)
				}
				want = expect{rows: res.NumRows(), checksum: sum}
				if e.workload == CoordMixed {
					shown := res.NumRows()
					if limit > 0 && shown > limit {
						shown = limit
					}
					rows := make([][]int64, shown)
					for i := range rows {
						rows[i] = res.Row(i)
					}
					want.shown = hashRows(rows)
				}
				if corrupt {
					want.checksum++
				}
				oracle[nk] = want
			}
			wants[keyOf[i]] = want
		}
		switch {
		case s.out.rows != want.rows:
			note(s, fmt.Sprintf("row_count %d, oracle %d", s.out.rows, want.rows))
		case s.out.checksum != want.checksum:
			note(s, fmt.Sprintf("checksum %d, oracle %d", s.out.checksum, want.checksum))
		case s.out.shownHash != want.shown:
			note(s, "shown rows differ from the oracle's")
		}
	}
	return failed, first, nil
}

// oracleRun executes an op the reference way.
func oracleRun(db *matstore.DB, op *Op) (*matstore.Result, int64, error) {
	if op.Query != nil {
		q, _, _, err := selectQuery(op.Query)
		if err != nil {
			return nil, 0, err
		}
		q.Parallelism = 1
		res, stats, err := db.Select(op.Query.Projection, q, matstore.EMParallel)
		if err != nil {
			return nil, 0, err
		}
		return res, stats.OutputChecksum, nil
	}
	q, _, err := joinQuery(op.Join)
	if err != nil {
		return nil, 0, err
	}
	q.Parallelism = 1
	res, stats, err := db.Join(op.Join.Left, op.Join.Right, q, matstore.RightMaterialized)
	if err != nil {
		return nil, 0, err
	}
	return res, stats.OutputChecksum, nil
}

// Procs is the GOMAXPROCS the benchmark runs under: min(nproc, MaxProcs).
func Procs() int {
	n := runtime.NumCPU()
	if n > MaxProcs {
		n = MaxProcs
	}
	return n
}

// Run sets a workload up, warms it, measures it for cfg.Seconds, checks its
// outputs against the oracle and returns the metrics: the end-to-end ones,
// or with cfg.Trace the per-layer ones.
func Run(cfg Config) (*Result, error) {
	scale := cfg.scale
	if scale == 0 {
		scale = Scale
	}
	if cfg.Dir == "" {
		cfg.Dir = ".bench_build"
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(Procs()))

	var (
		e      *env
		sched  *Schedule
		setupS []float64
		warmS  float64
		sp     = newSpeedometer()
	)
	n := setups
	if cfg.Trace {
		n = 1
	}
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		from, spent := len(sp.f), sp.spent
		start := time.Now()
		var err error
		if e, err = setUp(cfg.Workload, scale, cfg.Dir, sp); err != nil {
			return nil, err
		}
		if sched, err = NewSchedule(cfg.Workload, cfg.Seed, e.nCust); err != nil {
			e.close()
			return nil, err
		}
		warmStart := time.Now()
		warm := flatten(e.window(sched, 0, 0, warmupPasses(cfg.Workload), nil, sp))
		warmS = time.Since(warmStart).Seconds()
		for _, s := range warm {
			if s.out.err != nil {
				e.close()
				return nil, fmt.Errorf("perf: warm-up of %s: %s: %w", cfg.Workload, s.op.key(), s.out.err)
			}
		}
		// At reference speed, like every end-to-end time: by the samples taken
		// between the set-up's phases and along its warm-up.
		setupS = append(setupS, (time.Since(start)-(sp.spent-spent)).Seconds()/sp.factorSince(from))
	}
	defer e.close()

	res := &Result{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: map[string]Metric{}}
	if cfg.Trace {
		return res, e.tracedRun(cfg, sched, warmS, sp, res)
	}

	from := len(sp.f)
	e.logBytes.Store(0) // the warm-up's log is garbage by now
	mem := startMemSampler(&e.logBytes)
	chunks := e.window(sched, cfg.Seconds, minOps, 0, nil, sp)
	held := mem.stop() // before the chunks are joined: that copy is the generator's, not the program's
	samples := flatten(chunks)
	failed, first, err := e.verify(samples, cfg.Seed, cfg.corruptOracle)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.FirstFailure = len(samples), failed, first
	res.SpeedFactor = sp.factorSince(from)
	// The whole window: every op that completed, over the time from the first
	// request to the last completion.
	lats, wallS := atReferenceSpeed(samples, sp)
	p50, err := Percentile(lats, 0.50)
	if err != nil {
		return nil, err
	}
	p95, err := Percentile(lats, 0.95)
	if err != nil {
		return nil, err
	}
	res.Metrics["latency_p50_ms"] = Metric{Value: p50, Unit: "ms", N: len(lats)}
	res.Metrics["latency_p95_ms"] = Metric{Value: p95, Unit: "ms", N: len(lats)}
	res.Metrics["throughput_ops_s"] = Metric{Value: float64(len(lats)) / wallS, Unit: "1/s", N: len(lats)}
	res.Metrics["setup_s"] = Metric{Value: Median(setupS), Unit: "s", N: len(setupS)}
	sort.Float64s(held)
	res.Metrics["mem_held_p95_mb"] = Metric{Value: nearestRank(held, 0.95), Unit: "MB", N: len(held)}
	return res, nil
}

// latenciesMS returns the wall-clock latencies of the ops that succeeded.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.out.err == nil {
			out = append(out, float64(s.out.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

// memSampler records, every 20 ms, how much memory the process holds: what
// the Go runtime has mapped and not handed back to the kernel. That is what
// the resident set would be if the kernel took released pages back at once;
// the resident set itself is no use here, because under madvdontneed=0 (see
// cmd/csperf) it keeps counting pages long after they were released, and its
// high-water mark is set by the data generator during set-up, not by the
// workload. The run reports the 95th percentile of the samples taken during
// the window: the maximum is one garbage-collection cycle's bad luck and
// varies by a factor of two between runs of one commit, the 95th percentile
// by a few percent. The client's log of samples is taken off each reading: it
// is the generator's, and on serve_hot, where a faster host does three times
// the ops of a slower one in a window, it alone moved the metric by a fifth.
type memSampler struct {
	quit chan struct{}
	done chan struct{}
	log  *atomic.Int64 // bytes of the client's sample log
	mb   []float64
}

const memSampleEvery = 20 * time.Millisecond

func startMemSampler(log *atomic.Int64) *memSampler {
	m := &memSampler{quit: make(chan struct{}), done: make(chan struct{}), log: log}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				m.mb = append(m.mb, m.read())
			}
		}
	}()
	return m
}

// stop ends the sampling and returns the samples, in MB; a window shorter
// than the sampling interval still gets one.
func (m *memSampler) stop() []float64 {
	close(m.quit)
	<-m.done
	if len(m.mb) == 0 {
		m.mb = append(m.mb, m.read())
	}
	return m.mb
}

func (m *memSampler) read() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return (float64(s[0].Value.Uint64()-s[1].Value.Uint64()) - float64(m.log.Load())) / (1 << 20)
}
