package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"matstore"
	"matstore/internal/obs"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Fixed set-up of the benchmark. README.md states these beside the numbers.
const (
	// Scale is the TPC-H scale factor: 600k lineitem, 150k orders and 15k
	// customer rows, about 14 MB on disk.
	Scale = 0.1
	// DataSeed seeds the generated data; -seed varies the requests only.
	DataSeed = 42
	// MaxProcs caps GOMAXPROCS, and with it the workers an engine grants.
	MaxProcs = 4
	// engineMemoryBudget puts the memory governor on the join path, as under
	// csserve -memory-budget-mb, without ever making it wait, spill or shed
	// at this scale.
	engineMemoryBudget = 64 << 20
	coordShards        = 2
	// GODEBUG is the runtime setting every measured process is started under
	// (cmd/csperf sets it for the processes it starts, bench.sh exports it).
	// Under Go's default, memory the garbage collector hands back is unmapped,
	// and the workloads here, which allocate and drop results of megabytes per
	// op, fault it in again; what a page fault costs on this virtual machine
	// changes by the quarter of an hour (paper_join, same seed, alternating
	// runs: 55–69 ops/s and p95 41–48 ms under the default against 85–91 ops/s
	// and 26–27 ms under this setting, where an hour earlier the two agreed).
	// With madvdontneed=0 the kernel takes such pages back only when it needs
	// them. csserve deploys under the default, so the cost of re-faulting
	// released memory is not in these numbers, and a change that allocates less
	// gains less here than it would there.
	GODEBUG = "madvdontneed=0"
)

// env is one set-up of a workload: generated data, open handles and, for the
// served workloads, engines and a coordinator listening on loopback TCP in
// this process.
type env struct {
	workload string
	dir      string // removed by close
	fullDir  string // the unsharded dataset
	nCust    int64

	db      *matstore.DB    // in-process target; the engine's DB on serve_*
	srv     *service.Server // serve_*: the engine
	dbs     []*matstore.DB
	servers []*httptest.Server
	baseURL string
	client  *http.Client

	generateS, openS, bootS float64

	logBytes atomic.Int64 // what the client's sample logs take (window)
}

func served(workload string) bool {
	return workload == ServeHot || workload == ServeCold || workload == CoordMixed
}

// setUp generates the data under a fresh directory below base, opens it and
// boots what the workload needs. The speedometer times the host before the
// first phase and after each.
func setUp(workload string, scale float64, base string, sp *speedometer) (e *env, err error) {
	sp.sample()
	defer sp.sample()
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "csperf-data-")
	if err != nil {
		return nil, err
	}
	e = &env{workload: workload, dir: dir, fullDir: filepath.Join(dir, "full")}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := tpch.Config{Scale: scale, Seed: DataSeed}
	e.nCust = cfg.CustomerRows()

	t := time.Now()
	if err := tpch.Generate(e.fullDir, cfg); err != nil {
		return nil, err
	}
	shardRoot := filepath.Join(dir, "sharded")
	if workload == CoordMixed {
		layout := tpch.ShardLayout{PartitionKeys: map[string]string{
			tpch.OrdersProj: tpch.ColCustkey, tpch.CustomerProj: tpch.ColCustkey}}
		if _, err := tpch.GenerateShardedLayout(shardRoot, cfg, coordShards, layout); err != nil {
			return nil, err
		}
	}
	e.generateS = time.Since(t).Seconds()
	sp.sample()

	t = time.Now()
	var dirs []string
	if workload == CoordMixed {
		for k := 0; k < coordShards; k++ {
			dirs = append(dirs, filepath.Join(shardRoot, fmt.Sprintf("shard-%03d", k)))
		}
	} else {
		dirs = []string{e.fullDir}
	}
	for _, d := range dirs {
		db, err := matstore.Open(d)
		if err != nil {
			return nil, err
		}
		e.dbs = append(e.dbs, db)
	}
	e.db = e.dbs[0]
	e.openS = time.Since(t).Seconds()

	if !served(workload) {
		return e, nil
	}
	sp.sample()
	t = time.Now()
	var endpoints []string
	for _, db := range e.dbs {
		srv := service.New(db, service.Config{MemoryBudgetBytes: engineMemoryBudget})
		ts := httptest.NewServer(srv.Handler())
		e.servers = append(e.servers, ts)
		endpoints = append(endpoints, ts.URL)
		e.srv = srv
	}
	e.baseURL = endpoints[0]
	if workload == CoordMixed {
		coord, err := service.NewCoordinator(shardRoot, endpoints, service.CoordinatorConfig{})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(coord.Handler())
		e.servers = append(e.servers, ts)
		e.baseURL = ts.URL
	}
	e.client = &http.Client{Transport: &http.Transport{}}
	e.bootS = time.Since(t).Seconds()
	return e, nil
}

// close stops the servers, closes the handles and removes the data.
func (e *env) close() {
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	for i := len(e.servers) - 1; i >= 0; i-- {
		e.servers[i].Close()
	}
	for _, db := range e.dbs {
		db.Close()
	}
	os.RemoveAll(e.dir)
}

// outcome is what the driver observed of one op.
type outcome struct {
	lat      time.Duration
	err      error // transport error, non-200 or execution error
	rows     int
	checksum int64
	// shownHash folds the rows the response showed (coord_mixed only, whose
	// oracle compares them too).
	shownHash uint64
	respBytes int

	// Counters the program reports with the result.
	tuplesConstructed int64
	spillBytes        int64
	deferredFetches   int64

	ex *matstore.Explanation // traced in-process ops
}

func hashRows(rows [][]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range rows {
		for _, v := range row {
			for i := range b {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// do executes one op against the workload's surface. With rec set the op is
// traced: the program is asked for its span tree, and the driver wraps its
// own calls in spans under one root per op.
func (e *env) do(op *Op, id int, rec *Recorder, epoch time.Time) outcome {
	if served(e.workload) {
		return e.doHTTP(op, id, rec, epoch)
	}
	return e.doInProcess(op, id, rec, epoch)
}

func (e *env) doInProcess(op *Op, id int, rec *Recorder, epoch time.Time) (out outcome) {
	var (
		q    matstore.Query
		st   matstore.Strategy
		jq   matstore.JoinQuery
		rs   matstore.RightStrategy
		err  error
		tr   *obs.Trace
		span *obs.Span
	)
	if op.Query != nil {
		q, st, _, err = selectQuery(op.Query)
	} else if jq, rs, err = joinQuery(op.Join); err == nil && op.SpillQuarter {
		var est int64
		est, err = e.db.EstimateJoinMemory(op.Join.Right, jq, rs)
		jq.SpillBudgetBytes = est / 4
	}
	if err != nil {
		return outcome{err: err}
	}
	if rec != nil {
		tr = obs.NewTrace("", "explain")
		span = tr.Root()
	}

	var (
		res   *matstore.Result
		stats *matstore.Stats
		join  *matstore.JoinStats
	)
	start := time.Now()
	switch {
	case rec != nil:
		if op.Query != nil {
			out.ex, err = e.db.ExplainTraced(op.Query.Projection, q, st, span)
		} else {
			out.ex, err = e.db.ExplainJoinTraced(op.Join.Left, op.Join.Right, jq, rs, span)
		}
		span.End()
		if err == nil {
			res, stats, join = out.ex.Result, out.ex.Stats, out.ex.JoinStats
		}
	case op.Query != nil:
		res, stats, err = e.db.Select(op.Query.Projection, q, st)
	default:
		if res, join, err = e.db.Join(op.Join.Left, op.Join.Right, jq, rs); err == nil {
			stats = &join.Stats
		}
	}
	out.lat = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	out.rows, out.checksum = res.NumRows(), stats.OutputChecksum
	out.tuplesConstructed = stats.TuplesConstructed
	if join != nil {
		out.spillBytes, out.deferredFetches = join.Join.SpillBytes, join.Join.DeferredFetches
	}
	if rec != nil {
		t0 := start.Sub(epoch).Nanoseconds()
		root := rec.Add(nil, id, "op", t0, t0+out.lat.Nanoseconds())
		rec.Graft(root, id, wireForm(tr.JSON().Root))
	}
	return out
}

// wireForm gives an in-process span tree the attribute types a decoded
// response has (JSON numbers), so one reader serves both.
func wireForm(t *obs.SpanJSON) *obs.SpanJSON {
	raw, err := json.Marshal(t)
	if err != nil {
		return nil
	}
	var out obs.SpanJSON
	if json.Unmarshal(raw, &out) != nil {
		return nil
	}
	return &out
}

func (e *env) doHTTP(op *Op, id int, rec *Recorder, epoch time.Time) (out outcome) {
	path, body := "/query", any(op.Query)
	if op.Join != nil {
		path, body = "/join", op.Join
	}
	if rec != nil {
		// Copy before asking for the trace: the op is shared with the oracle.
		if op.Join != nil {
			j := *op.Join
			j.Trace = true
			body = &j
		} else {
			q := *op.Query
			q.Trace = true
			body = &q
		}
	}
	start := time.Now()
	raw, err := json.Marshal(body)
	if err != nil {
		return outcome{err: err}
	}
	written := time.Now()
	resp, err := e.client.Post(e.baseURL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return outcome{lat: time.Since(start), err: err}
	}
	answered := time.Now()
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	read := time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(payload))
	}
	var qr service.QueryResponse
	if err == nil {
		err = json.Unmarshal(payload, &qr)
	}
	out.lat = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	out.rows, out.checksum, out.respBytes = qr.RowCount, qr.Checksum, len(payload)
	out.spillBytes, out.deferredFetches = qr.SpillBytes, qr.DeferredFetches
	if e.workload == CoordMixed {
		out.shownHash = hashRows(qr.Rows)
	}
	if rec != nil {
		ns := func(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }
		root := rec.Add(nil, id, "op", ns(start), ns(start)+out.lat.Nanoseconds())
		rec.Add(root, id, "request.encode", ns(start), ns(written))
		rt := rec.Add(root, id, "http.roundtrip", ns(written), ns(answered))
		if qr.Trace != nil {
			rec.Graft(rt, id, qr.Trace.Root)
		}
		rec.Add(root, id, "response.read", ns(answered), ns(read))
		rec.Add(root, id, "response.decode", ns(read), root.End)
	}
	return out
}

// getJSON fetches a JSON document from the serving surface.
func (e *env) getJSON(path string, dst any) error {
	resp, err := e.client.Get(e.baseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}
