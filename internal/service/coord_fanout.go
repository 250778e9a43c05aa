package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"matstore/internal/obs"
)

// httpError carries a fan-out failure back to the front-end: a status, a
// response body (the failing shard's, when there is one) and an optional
// Retry-After value to propagate.
type httpError struct {
	status     int
	body       []byte
	message    string
	retryAfter string
}

func (e *httpError) Error() string {
	if e.message != "" {
		return e.message
	}
	return string(e.body)
}

func (e *httpError) write(w http.ResponseWriter) {
	if len(e.body) > 0 {
		relay(w, e.status, e.body, e.retryAfter)
		return
	}
	writeError(w, e.status, errors.New(e.message))
}

// relay writes a shard's reply through verbatim: status, Retry-After, body.
func relay(w http.ResponseWriter, status int, body []byte, retryAfter string) {
	if retryAfter != "" {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// shardReply is one shard's raw reply, or the error that stood in for it.
type shardReply struct {
	shard       int
	status      int
	contentType string
	body        []byte
	retryAfter  string
	err         error
	span        *obs.Span // the fan-out's "shard k" span; nil when untraced
}

// graft hangs the shard's own span tree, decoded from its reply, under the
// shard's span of the fan-out.
func (r shardReply) graft(tr *obs.TraceJSON) {
	if tr != nil {
		r.span.SetAttr("shard_trace_id", tr.ID)
		r.span.Graft(tr.Root)
	}
}

// noReply maps a shard call that got no reply onto the front-end failure: a
// timeout is 504, any other transport fault 502.
func (c *Coordinator) noReply(rep shardReply) *httpError {
	c.shardErrors.Add(1)
	status := http.StatusBadGateway
	if errors.Is(rep.err, context.DeadlineExceeded) {
		status = http.StatusGatewayTimeout
	}
	return &httpError{status: status, message: fmt.Sprintf("shard %d: %v", rep.shard, rep.err)}
}

// badShardBody is a 200 reply the coordinator could not decode.
func badShardBody(rep shardReply, err error) *httpError {
	return &httpError{status: http.StatusBadGateway, message: fmt.Sprintf("shard %d: bad response: %v", rep.shard, err)}
}

// errSiblingFailed is the cause a fan-out cancels its remaining shard calls
// with once one shard has failed.
var errSiblingFailed = errors.New("a sibling shard failed")

// fanout POSTs body to path on the given shards in parallel, each under the
// per-shard timeout, and returns the replies in shard order. The first shard
// to fail — a transport fault, a timeout, or any reply other than 200 and
// 503 — cancels its siblings, so a dead shard beside a slow one fails the
// request at once instead of after the slow one's timeout. (A shedding
// shard's 503 does not cancel: every Retry-After is wanted.)
//
// The error return folds per-shard failures into one front-end failure,
// scanned in shard order so the mapping is deterministic: a transport fault
// is 502, a timeout 504, a shard 503 propagates as 503 carrying the LARGEST
// Retry-After any shedding shard advertised (retrying sooner than the
// slowest shard recovers would just shed again), and any other non-200
// shard status (400, 500) passes through with the shard's body. Calls the
// fan-out itself cancelled are not failures and are passed over.
//
// Every call accepts the partial form. When span is non-nil, each shard call
// opens a sibling "shard k" child span (the trace mutex makes concurrent
// sibling creation safe) that its reply carries; whoever decodes the reply
// grafts the shard's own span tree — returned inline in its traced response,
// under the same trace id propagated via X-CS-Trace-Id — beneath it, so the
// coordinator's tree embeds every shard's admission and per-plan-node spans.
func (c *Coordinator) fanout(ctx context.Context, path string, body any, shards []int, tid string, span *obs.Span) ([]shardReply, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, &httpError{status: http.StatusInternalServerError, message: err.Error()}
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	replies := make([]shardReply, len(shards))
	var wg sync.WaitGroup
	for i, k := range shards {
		wg.Add(1)
		go func(i, k int) {
			defer wg.Done()
			sspan := span.Child("shard " + strconv.Itoa(k))
			sspan.SetAttr("shard", k)
			sspan.SetAttr("url", c.shards[k].url)
			rep := c.callShard(ctx, path, raw, k, tid, partialContentType)
			rep.span = sspan
			replies[i] = rep
			if rep.err != nil || (rep.status != http.StatusOK && rep.status != http.StatusServiceUnavailable) {
				cancel(errSiblingFailed)
			}
			sspan.End()
		}(i, k)
	}
	wg.Wait()

	var shed *httpError
	for _, r := range replies {
		switch {
		case errors.Is(r.err, context.Canceled) && context.Cause(ctx) == errSiblingFailed:
			// Cancelled by this fan-out after a sibling failed.
		case r.err != nil:
			return nil, c.noReply(r)
		case r.status == http.StatusServiceUnavailable:
			c.shardErrors.Add(1)
			if shed == nil || retryAfterSeconds(r.retryAfter) > retryAfterSeconds(shed.retryAfter) {
				shed = &httpError{status: r.status, body: r.body, retryAfter: r.retryAfter}
			}
		case r.status != http.StatusOK:
			c.shardErrors.Add(1)
			return nil, &httpError{status: r.status, body: r.body}
		}
	}
	if shed != nil {
		return nil, shed
	}
	return replies, nil
}

func retryAfterSeconds(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// callShard POSTs one query-path request to shard k, counted and timed.
func (c *Coordinator) callShard(ctx context.Context, path string, body []byte, k int, tid, accept string) shardReply {
	c.shardRequests.Add(1)
	start := time.Now()
	defer func() { c.shardLatency[k].Observe(time.Since(start).Seconds()) }()
	return c.roundTrip(ctx, http.MethodPost, path, body, k, tid, accept)
}

// roundTrip makes one HTTP call to shard k under the per-shard timeout, asking
// for the accept content type when it is set, and reads the whole reply.
func (c *Coordinator) roundTrip(ctx context.Context, method, path string, body []byte, k int, tid, accept string) shardReply {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.shards[k].url+path, rd)
	if err != nil {
		return shardReply{shard: k, err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tid != "" {
		req.Header.Set(TraceIDHeader, tid)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		var raw []byte
		if raw, err = io.ReadAll(resp.Body); err == nil {
			return shardReply{shard: k, status: resp.StatusCode, contentType: resp.Header.Get("Content-Type"),
				body: raw, retryAfter: resp.Header.Get("Retry-After")}
		}
	}
	if ctx.Err() != nil {
		err = ctx.Err() // a timeout or a cancel, whatever the transport made of it
	}
	return shardReply{shard: k, err: err}
}

// routeSingle handles a request routed to exactly one shard (replicated
// projections, fully-pruned or one-shard layouts): it passes through, because
// the shard's response IS the global response — status, Retry-After and body
// are relayed verbatim, and a traced request's span tree comes back inside
// the shard's body under the propagated trace id. It reports whether it
// answered.
func (c *Coordinator) routeSingle(w http.ResponseWriter, r *http.Request, path string, body any, shards []int, tid string) bool {
	if len(shards) != 1 {
		return false
	}
	c.routedSingle.Add(1)
	raw, err := json.Marshal(body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return true
	}
	rep := c.callShard(r.Context(), path, raw, shards[0], tid, "")
	if rep.err != nil {
		c.noReply(rep).write(w)
		return true
	}
	if rep.status != http.StatusOK {
		c.shardErrors.Add(1)
	}
	relay(w, rep.status, rep.body, rep.retryAfter)
	return true
}

// scatter fans one request out over more than one shard under the
// exchange's "fanout" span (attrs are extra key, value span attributes). On
// failure it has answered, and reports false.
func (c *Coordinator) scatter(x *exchange, ctx context.Context, path string, body any, shards []int, attrs ...any) ([]shardReply, bool) {
	c.fannedOut.Add(1)
	fspan := x.tr.Root().Child("fanout")
	fspan.SetAttr("parallel", true)
	fspan.SetAttr("shards", len(shards))
	for i := 0; i+1 < len(attrs); i += 2 {
		fspan.SetAttr(attrs[i].(string), attrs[i+1])
	}
	replies, err := c.fanout(ctx, path, body, shards, x.tid, fspan)
	fspan.End()
	if err != nil {
		x.fail(err)
		return nil, false
	}
	return replies, true
}

// gather is the scatter-decode-merge-reply sequence every fanned-out query
// and join shares. Each reply is decoded once, from the partial form: its
// header's trace is grafted, its arrays become the columns the merge folds.
func (c *Coordinator) gather(x *exchange, ctx context.Context, path string, shardReq any, shards []int, limit int, m merge, attrs ...any) {
	replies, ok := c.scatter(x, ctx, path, shardReq, shards, attrs...)
	if !ok {
		return
	}
	parts := make([]*answer, len(replies))
	for i, rep := range replies {
		p, err := decodePartial(rep.contentType, rep.body)
		if err == nil {
			err = m.check(p, parts[0])
		}
		if err != nil {
			x.fail(badShardBody(rep, err))
			return
		}
		rep.graft(p.Trace)
		parts[i] = p
	}
	gspan := x.tr.Root().Child("merge")
	resp := m.fold(parts, limit)
	if m.count != nil {
		m.count.Add(1)
	}
	gspan.SetAttr("kind", m.kind)
	gspan.SetAttr("rows", resp.RowCount)
	gspan.End()
	resp.Wall = time.Since(x.start).Nanoseconds()
	x.reply(resp, &resp.Trace, time.Since(x.start), shardCount(shards))
}

// shardCount is a coordinator's slow-query detail.
func shardCount(shards []int) func() []any {
	return func() []any { return []any{"shards", len(shards)} }
}

// getShards GETs path from every shard in parallel, each under the per-shard
// timeout; a shard that does not answer leaves a reply with err set.
func (c *Coordinator) getShards(ctx context.Context, path string) []shardReply {
	replies := make([]shardReply, len(c.shards))
	var wg sync.WaitGroup
	for k := range c.shards {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			replies[k] = c.roundTrip(ctx, http.MethodGet, path, nil, k, "", "")
		}(k)
	}
	wg.Wait()
	return replies
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	st := CoordinatorStats{
		NumShards:     c.manifest.NumShards,
		Queries:       c.queries.Load(),
		FannedOut:     c.fannedOut.Load(),
		RoutedSingle:  c.routedSingle.Load(),
		ShardRequests: c.shardRequests.Load(),
		PrunedShards:  c.prunedShards.Load(),
		ShardErrors:   c.shardErrors.Load(),
		AggMerges:     c.aggMerges.Load(),
		CopartJoins:   c.copartJoins.Load(),
		FinalizedAggs: c.finalizedAggs.Load(),
		RowIDMerges:   c.rowidMerges.Load(),
		Shards:        make([]json.RawMessage, len(c.shards)),
		ShardTotals:   map[string]any{},
	}
	for k, rep := range c.getShards(r.Context(), "/stats") {
		st.Endpoints = append(st.Endpoints, c.shards[k].url)
		if rep.err != nil || rep.status != http.StatusOK {
			continue
		}
		st.Shards[k] = rep.body
		var doc map[string]any
		if json.Unmarshal(rep.body, &doc) == nil {
			sumJSONNumbers(st.ShardTotals, doc)
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// sumJSONNumbers folds src's numeric fields into dst, recursing through
// nested objects — the shard-count-agnostic way to aggregate shard /stats
// documents without hand-maintaining a field list.
func sumJSONNumbers(dst map[string]any, src map[string]any) {
	for k, v := range src {
		switch sv := v.(type) {
		case float64:
			cur, _ := dst[k].(float64)
			dst[k] = cur + sv
		case map[string]any:
			sub, ok := dst[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				dst[k] = sub
			}
			sumJSONNumbers(sub, sv)
		}
	}
}

// handleReady reports coordinator readiness: ready only when EVERY shard's
// /readyz answers 200, so a load balancer stops routing to the coordinator
// while any shard drains or sheds — a scatter-gather request needs all of
// them.
func (c *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	type shardReady struct {
		Shard int    `json:"shard"`
		URL   string `json:"url"`
		Ready bool   `json:"ready"`
	}
	out := make([]shardReady, len(c.shards))
	ready := true
	for k, rep := range c.getShards(r.Context(), "/readyz") {
		out[k] = shardReady{Shard: k, URL: c.shards[k].url, Ready: rep.err == nil && rep.status == http.StatusOK}
		ready = ready && out[k].Ready
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "shards": out})
}
