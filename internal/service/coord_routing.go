package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"matstore"
	"matstore/internal/obs"
	"matstore/internal/operators"
	"matstore/internal/storage"
)

// Scatter-gather coordinator: one process fronting N shard engines, each an
// ordinary csserve over one shard directory of a csgen -shards layout. The
// coordinator loads ONLY metadata at startup (shards.json plus every
// shard's per-projection meta.json) — shard data is never touched here —
// and serves the same /query, /join and /explain endpoints by fanning
// requests out over the shard HTTP endpoints in parallel and merging the
// partials with the exact deterministic contract the morsel executor uses
// in memory:
//
//   - range-sharded selection/join row partials concatenate in shard order
//     (shard order IS global row order, so this is rows.Result.AppendChunks
//     across the wire); row counts and output checksums add;
//   - key-partitioned partials arrive tagged with each row's global row id
//     (the hidden storage.RowIDColumn, requested via rowids=true) and are
//     k-way merged by ascending row id — each shard's rows are a
//     global-order subsequence, so the merge restores exactly the global
//     interleaving;
//   - aggregation partials ship mergeable per-group statistics
//     (operators.GroupStats, requested via partial=true) which the
//     coordinator absorbs into a fresh Aggregator and re-emits sorted by
//     key — emitted aggregate values do not merge (AVG loses its count),
//     the statistics do. When the group-by key IS the partition key the
//     statistics wire is skipped entirely: group keys are disjoint across
//     shards, so shards ship finalized rows, each shard's sorted by key,
//     that k-way merge by key (the finalization pushdown);
//   - explain trees concatenate with per-shard row-range (or hash-scheme)
//     headers.
//
// Because the merge contract is the executor's, coordinator responses are
// byte-identical to the single-process engine at every shard count.
//
// The coordinator is three files: this one routes (which shards a request
// goes to, and what each is asked), coord_fanout.go scatters and gathers,
// coord_merge.go merges the partials. The partials travel in the
// column-major form of wire.go.
//
// Routing: sharded projections fan out to every shard whose row range is
// non-empty (key-partitioned projections: every shard), minus shards whose
// column min/max statistics refute every predicate (zone-map pruning lifted
// to shard granularity); replicated projections round-robin to a single
// shard. Joins run shard-local against the replicated right side (left
// sharded) or route to one shard (left replicated); a sharded right side is
// accepted only when both sides are CO-PARTITIONED — hash-partitioned on
// the join keys under the same scheme with equal shard counts — in which
// case the join fans out as N shard-local joins with no inner replication;
// any other sharded right side is rejected up front with a 400 naming the
// incompatibility.

// DefaultShardTimeout bounds one shard request when the config leaves it 0.
const DefaultShardTimeout = 30 * time.Second

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// ShardTimeout is the per-shard fan-out timeout (0 = 30s). A shard that
	// misses it turns the whole request into 504.
	ShardTimeout time.Duration
	// Client overrides the HTTP client used for shard requests (nil = a
	// default client; the per-request timeout still comes from ShardTimeout).
	Client *http.Client
	// Logger receives structured JSON log lines (slow queries, fan-out
	// failures). Nil disables logging.
	Logger *obs.Logger
	// SlowQueryMicros is the slow-query log threshold (0 = disabled), as in
	// Config.
	SlowQueryMicros int64
}

// shardNode is one shard's routing state: its endpoint plus the
// per-projection catalog records read at startup.
type shardNode struct {
	url   string
	metas map[string]storage.ProjectionMeta
}

// Coordinator fans requests over shard engines and merges the partials.
type Coordinator struct {
	front // request metrics, tracing, the slow-query and error logs

	manifest *storage.ShardManifest
	shards   []shardNode
	client   *http.Client
	timeout  time.Duration

	start time.Time
	// shardLatency is cs_shard_request_seconds{shard}, by shard index.
	shardLatency []*obs.Histogram

	queries       atomic.Int64
	fannedOut     atomic.Int64 // requests that went to more than one shard
	routedSingle  atomic.Int64 // requests answered by exactly one shard
	shardRequests atomic.Int64 // total shard HTTP requests issued
	prunedShards  atomic.Int64 // shards skipped by min/max statistics
	shardErrors   atomic.Int64 // shard requests that failed or timed out
	aggMerges     atomic.Int64 // partial aggregations absorbed and re-emitted
	copartJoins   atomic.Int64 // joins fanned out co-partitioned (no inner replication)
	finalizedAggs atomic.Int64 // partition-key aggregations merged from finalized rows
	rowidMerges   atomic.Int64 // key-partitioned fan-outs k-way merged by row id
	rr            atomic.Int64 // round-robin cursor for replicated routing
}

// NewCoordinator loads the shard manifest and every shard's projection
// metadata from a csgen -shards root and binds shard k to endpoints[k]
// (base URLs such as http://127.0.0.1:9101). No shard data is read.
func NewCoordinator(root string, endpoints []string, cfg CoordinatorConfig) (*Coordinator, error) {
	m, err := storage.LoadShardManifest(root)
	if err != nil {
		return nil, err
	}
	if len(endpoints) != m.NumShards {
		return nil, fmt.Errorf("service: manifest has %d shards but %d endpoints given", m.NumShards, len(endpoints))
	}
	c := &Coordinator{
		manifest: m,
		client:   cfg.Client,
		timeout:  cfg.ShardTimeout,
		start:    time.Now(),
	}
	c.front = front{frontMetrics: newFrontMetrics(c.start), logger: cfg.Logger,
		slowUS: cfg.SlowQueryMicros, rootPrefix: "coordinator."}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.timeout <= 0 {
		c.timeout = DefaultShardTimeout
	}
	for k, ep := range endpoints {
		dir := filepath.Join(root, m.Dirs[k])
		projs, err := storage.ListProjectionDirs(dir)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", k, err)
		}
		node := shardNode{url: ep, metas: make(map[string]storage.ProjectionMeta, len(projs))}
		for _, p := range projs {
			meta, err := storage.ReadProjectionMeta(filepath.Join(dir, p))
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", k, err)
			}
			node.metas[p] = meta
		}
		c.shards = append(c.shards, node)
	}
	registerCoordMetrics(c)
	return c, nil
}

// Manifest returns the loaded shard manifest.
func (c *Coordinator) Manifest() *storage.ShardManifest { return c.manifest }

// Handler returns the coordinator's HTTP mux: the same endpoint surface as
// a shard engine.
func (c *Coordinator) Handler() http.Handler {
	mux := c.mux(c.handleQuery, c.handleJoin, c.handleExplain, c.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		body := healthBody(c.start)
		body["role"] = "coordinator"
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/readyz", c.handleReady)
	return mux
}

// nextShard round-robins single-shard routes (replicated projections).
func (c *Coordinator) nextShard() []int {
	return []int{int(c.rr.Add(1)-1) % len(c.shards)}
}

// shardsFor routes a request over a projection: a sharded projection fans
// out to every shard holding rows (a non-empty row range, or any shard of a
// key-partitioned placement) whose column min/max statistics cannot refute
// the predicates (shard-level zone-map pruning); a replicated projection
// round-robins to one shard. At least one shard is always returned so
// fully-pruned requests still produce a well-formed empty result.
func (c *Coordinator) shardsFor(proj string, filters []matstore.Filter) ([]int, error) {
	pl, ok := c.manifest.Placement(proj)
	if !ok {
		return nil, fmt.Errorf("projection %q not in shard manifest", proj)
	}
	if !pl.Sharded {
		return c.nextShard(), nil
	}
	var out []int
	for k := range c.shards {
		if !pl.KeyPartitioned() && (k >= len(pl.Ranges) || pl.Ranges[k].Len() == 0) {
			continue
		}
		if c.pruneShard(k, proj, filters) {
			c.prunedShards.Add(1)
			continue
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out, nil
}

// pruneShard reports that shard k provably holds no row of proj matching
// every filter, using the per-shard catalog min/max (a zone-map test at
// shard granularity).
// Conservative: unknown columns and non-interval predicates never prune.
func (c *Coordinator) pruneShard(k int, proj string, filters []matstore.Filter) bool {
	meta, ok := c.shards[k].metas[proj]
	if !ok {
		return false
	}
	for _, f := range filters {
		lo, hi, ok := f.Pred.Interval()
		if !ok {
			continue
		}
		for _, cm := range meta.Columns {
			if cm.Name != f.Col {
				continue
			}
			if hi < cm.Min || lo > cm.Max {
				return true
			}
			break
		}
	}
	return false
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.queries.Add(1)
	filters, err := parseWhereList(req.Where)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	shards, err := c.shardsFor(req.Projection, filters)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if c.routeSingle(w, r, "/query", req, shards, tid) {
		return
	}
	pl, _ := c.manifest.Placement(req.Projection)
	keyPart := pl.KeyPartitioned()
	aggregating := req.GroupBy != "" && req.AggCol != ""
	// Finalization pushdown: when the group-by key IS the partition key,
	// group keys are disjoint across shards — no group spans two shards — so
	// each shard's finalized rows are the global answer for its groups. No
	// statistics wire, no AbsorbGroups pass.
	finalized := aggregating && keyPart && req.GroupBy == pl.Partition.Column
	var fn operators.AggFunc
	if aggregating && !finalized && req.Agg != "" {
		if fn, err = operators.ParseAggFunc(req.Agg); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	lim := resolveLimit(req.Limit)
	shardReq := req
	// Limit pushdown: each shard's rows are a global-order prefix source
	// (range shards: shard order is global order; key-partitioned shards:
	// a global-order subsequence, so any of the first lim global rows has
	// fewer than lim predecessors on its own shard). Finalized aggregations
	// push the limit too — shards emit sorted by key, and the global
	// smallest lim keys are among the union of per-shard smallest lim.
	// Statistics-merged aggregations need every group regardless.
	shardReq.Limit = lim
	m := merge{kind: "concat", fold: mergeRowParts}
	switch {
	case finalized:
		// Plain aggregation on each shard: finalized rows, sorted by key.
		m = merge{kind: "finalized_agg", count: &c.finalizedAggs, width: 2, fold: mergeFinalizedAggParts}
	case aggregating:
		shardReq.Partial = true
		shardReq.Limit = -1
		m = merge{kind: "agg_statistics", count: &c.aggMerges, width: 2, fold: func(parts []*answer, limit int) *answer {
			return mergeAggParts(parts, fn, limit)
		}}
	case keyPart:
		shardReq.RowIDs = true
		m = merge{kind: "rowid_kway", count: &c.rowidMerges, rowIDs: true, fold: mergeRowIDParts}
	default:
		shardReq.Partial = true
	}
	x := c.begin(w, r, tid, "query", req.shape(), req.Trace)
	c.gather(&x, r.Context(), "/query", shardReq, shards, lim, m)
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.queries.Add(1)
	filters, err := parseWhereList(req.Where)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	leftPl, lok := c.manifest.Placement(req.Left)
	rightPl, rok := c.manifest.Placement(req.Right)
	if !lok || !rok {
		writeError(w, http.StatusBadRequest, fmt.Errorf("join tables %q, %q must both be in the shard manifest", req.Left, req.Right))
		return
	}
	// Shard-local join correctness: every shard probes its slice of the
	// outer table against everything its key could match. Two ways to get
	// that: the inner side is replicated (every shard holds the full inner
	// table), or both sides are CO-PARTITIONED on the join keys — the same
	// hash scheme with equal shard counts puts every matching inner row on
	// the probing row's own shard, so no replication is needed. Anything
	// else with a sharded right side cannot run shard-local (or there is
	// only one shard and locality is trivial).
	copart := copartitioned(leftPl, rightPl, req.LeftKey, req.RightKey)
	if rightPl.Sharded && c.manifest.NumShards > 1 && !copart {
		writeError(w, http.StatusBadRequest, copartitionError(req, leftPl, rightPl))
		return
	}
	shards := c.nextShard()
	if leftPl.Sharded {
		if shards, err = c.shardsFor(req.Left, filters); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if c.routeSingle(w, r, "/join", req, shards, tid) {
		return
	}
	if copart {
		c.copartJoins.Add(1)
	}
	lim := resolveLimit(req.Limit)
	shardReq := req
	shardReq.Limit = lim
	m := merge{kind: "concat", fold: mergeRowParts}
	if leftPl.KeyPartitioned() {
		shardReq.RowIDs = true
		m = merge{kind: "rowid_kway", count: &c.rowidMerges, rowIDs: true, fold: mergeRowIDParts}
	}
	x := c.begin(w, r, tid, "join", req.shape(), req.Trace)
	c.gather(&x, r.Context(), "/join", shardReq, shards, lim, m, "copartitioned", copart)
}

func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	tid := ensureTraceID(w, r)
	var raw json.RawMessage
	if !decodeBody(w, r, &raw) {
		return
	}
	c.queries.Add(1)
	var probe struct {
		Projection string `json:"projection"`
		Left       string `json:"left"`
		Right      string `json:"right"`
		Trace      bool   `json:"trace"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	outer := probe.Projection
	if probe.Right != "" {
		outer = probe.Left
	}
	// Explain fans to every shard holding rows — no filters, so no pruning:
	// the point is to see each shard's plan — and concatenates the trees
	// under per-shard global row-range (or hash-scheme) headers.
	shards, err := c.shardsFor(outer, nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pl, _ := c.manifest.Placement(outer)
	if c.routeSingle(w, r, "/explain", raw, shards, tid) {
		return
	}
	x := c.begin(w, r, tid, "explain", "explain "+outer, probe.Trace)
	replies, ok := c.scatter(&x, r.Context(), "/explain", raw, shards)
	if !ok {
		return
	}
	merged := ExplainResponse{}
	var tree bytes.Buffer
	for i, rep := range replies {
		var ex ExplainResponse
		if err := json.Unmarshal(rep.body, &ex); err != nil {
			x.fail(badShardBody(rep, err))
			return
		}
		rep.graft(ex.Trace)
		k := shards[i]
		if pl.KeyPartitioned() {
			fmt.Fprintf(&tree, "── shard %d: %s hash(%s) mod %d == %d @ %s ──\n%s",
				k, outer, pl.Partition.Column, pl.Partition.Shards, k, c.shards[k].url, ex.Tree)
		} else {
			rg := pl.Ranges[k]
			fmt.Fprintf(&tree, "── shard %d: %s rows [%d,%d) @ %s ──\n%s",
				k, outer, rg.Start, rg.End, c.shards[k].url, ex.Tree)
		}
		if i == 0 {
			merged.Strategy = ex.Strategy
		}
		merged.ModeledUS += ex.ModeledUS
		merged.Workers += ex.Workers
		// RowCount sums shard partials; for aggregations this counts
		// per-shard groups, an upper bound on the merged group count.
		merged.RowCount += ex.RowCount
	}
	merged.Tree = tree.String()
	merged.Wall = time.Since(x.start).Nanoseconds()
	x.reply(merged, &merged.Trace, time.Since(x.start), shardCount(shards))
}

// copartitioned reports whether a join's two sides are co-partitioned on
// its join keys: both hash-partitioned on exactly those keys under the same
// hash scheme with equal shard counts, so shard k's left rows can only
// match shard k's right rows.
func copartitioned(leftPl, rightPl storage.ShardPlacement, leftKey, rightKey string) bool {
	return leftPl.KeyPartitioned() && rightPl.KeyPartitioned() &&
		leftPl.Partition.Column == leftKey &&
		rightPl.Partition.Column == rightKey &&
		leftPl.Partition.Shards == rightPl.Partition.Shards &&
		leftPl.Partition.Hash == rightPl.Partition.Hash
}

// copartitionError explains exactly why a sharded right side cannot join
// shard-locally: which projection lacks compatible partitioning, on which
// column, and any shard-count or hash-scheme mismatch.
func copartitionError(req JoinRequest, leftPl, rightPl storage.ShardPlacement) error {
	desc := func(name, key string, pl storage.ShardPlacement) string {
		switch {
		case pl.KeyPartitioned() && pl.Partition.Column != key:
			return fmt.Sprintf("%q is partitioned on %q, not its join key %q", name, pl.Partition.Column, key)
		case pl.KeyPartitioned():
			return fmt.Sprintf("%q is partitioned on %q into %d shards (%s)", name, pl.Partition.Column, pl.Partition.Shards, pl.Partition.Hash)
		case pl.Sharded:
			return fmt.Sprintf("%q is range-sharded with no partition key", name)
		default:
			return fmt.Sprintf("%q is replicated", name)
		}
	}
	detail := desc(req.Left, req.LeftKey, leftPl) + "; " + desc(req.Right, req.RightKey, rightPl)
	if leftPl.KeyPartitioned() && rightPl.KeyPartitioned() && leftPl.Partition.Shards != rightPl.Partition.Shards {
		detail += fmt.Sprintf("; shard counts differ (%d vs %d)", leftPl.Partition.Shards, rightPl.Partition.Shards)
	}
	return fmt.Errorf(
		"join right side %q is sharded without co-partitioning on the join keys (%s.%s = %s.%s): %s. "+
			"Shard-local joins need the right side replicated, or both sides hash-partitioned on the join keys "+
			"with equal shard counts (csgen -shards N -partition-key %s.%s,%s.%s)",
		req.Right, req.Left, req.LeftKey, req.Right, req.RightKey, detail,
		req.Left, req.LeftKey, req.Right, req.RightKey)
}

// CoordinatorStats is the coordinator's /stats snapshot: its own fan-out
// counters, every shard's live Stats, and a field-wise numeric sum of the
// shard snapshots.
type CoordinatorStats struct {
	NumShards     int      `json:"num_shards"`
	Endpoints     []string `json:"endpoints"`
	Queries       int64    `json:"queries"`
	FannedOut     int64    `json:"fanned_out"`
	RoutedSingle  int64    `json:"routed_single"`
	ShardRequests int64    `json:"shard_requests"`
	PrunedShards  int64    `json:"pruned_shards"`
	ShardErrors   int64    `json:"shard_errors"`
	AggMerges     int64    `json:"agg_merges"`
	// CopartJoins counts joins fanned out shard-local with no inner
	// replication (both sides co-partitioned on the join keys); the ci smoke
	// greps it. FinalizedAggs counts partition-key aggregations merged from
	// finalized shard rows (no statistics wire); RowIDMerges counts
	// key-partitioned fan-outs restored to global row order by row id.
	CopartJoins   int64 `json:"copartitioned_joins"`
	FinalizedAggs int64 `json:"finalized_aggs"`
	RowIDMerges   int64 `json:"rowid_merges"`
	// Shards holds each shard's own /stats document (null for a shard that
	// did not answer); ShardTotals is their field-wise numeric sum.
	Shards      []json.RawMessage `json:"shards"`
	ShardTotals map[string]any    `json:"shard_totals"`
}

// String renders a one-line coordinator description.
func (c *Coordinator) String() string {
	names := make([]string, 0, len(c.manifest.Projections))
	for name := range c.manifest.Projections {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Sprintf("service.Coordinator{shards=%d, projections=%v, timeout=%s}",
		c.manifest.NumShards, names, c.timeout)
}
