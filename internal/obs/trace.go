// Package obs is the serving stack's observability kit: request-scoped
// trace span trees threaded through context.Context, a hand-rolled
// Prometheus-text metrics registry (counters, gauges, log-scale latency
// histograms), and a structured JSON line logger. No external dependencies —
// the whole package is standard library only — and every tracing entry point
// is nil-receiver safe, so code instruments unconditionally and a request
// without a trace attached pays no allocation and no clock read.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Version is the build version stamped into /stats, /healthz and log lines.
const Version = "0.10.0"

// Trace is one request's span tree. The root span is created with the
// trace; children hang off it via Span.Child. All mutation goes through the
// trace mutex, so concurrent fan-out goroutines can open sibling spans.
type Trace struct {
	id    string
	start time.Time
	mu    sync.Mutex
	root  *Span
}

// NewTrace starts a trace. id "" generates a fresh 16-hex-char id (a
// propagated X-CS-Trace-Id header passes the upstream id through instead).
func NewTrace(id, rootName string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	t := &Trace{id: id, start: time.Now()}
	t.root = &Span{trace: t, name: rootName, start: t.start}
	return t
}

// NewTraceID returns a random 16-hex-char trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id is still
		// a valid (if non-unique) id.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span is one timed region of a trace. All methods are nil-receiver safe
// no-ops, so instrumentation sites never branch on "is tracing on": with no
// trace attached, SpanFromContext returns nil and every call below costs a
// nil check.
type Span struct {
	trace    *Trace
	name     string
	start    time.Time
	durNanos int64
	attrs    []Attr
	children []*Span
	// grafted holds remote sub-trees (a shard's decoded span tree) adopted
	// into this span's children at render time. Their start offsets are
	// remote-clock-local.
	grafted []*SpanJSON
}

// Attr is one span attribute (ordered, unlike a map, so rendering is
// deterministic).
type Attr struct {
	Key   string
	Value any
}

// Child opens a sub-span starting now. Returns nil (a no-op span) when s is
// nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{trace: s.trace, name: name, start: time.Now()}
	s.trace.mu.Lock()
	s.children = append(s.children, c)
	s.trace.mu.Unlock()
	return c
}

// End closes the span at now. Ending twice keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start).Nanoseconds()
	s.trace.mu.Lock()
	if s.durNanos == 0 {
		s.durNanos = d
	}
	s.trace.mu.Unlock()
}

// EndDur closes the span with an explicit duration — used for synthetic
// spans reconstructed from accumulated counters (per-plan-node observed
// nanos) rather than wall-clocked in place.
func (s *Span) EndDur(nanos int64) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.durNanos = nanos
	s.trace.mu.Unlock()
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.trace.mu.Unlock()
}

// Graft adopts a remote sub-tree (e.g. a shard's decoded trace root) as a
// child of this span. The sub-tree renders verbatim; its start offsets are
// relative to the remote clock.
func (s *Span) Graft(child *SpanJSON) {
	if s == nil || child == nil {
		return
	}
	s.trace.mu.Lock()
	s.grafted = append(s.grafted, child)
	s.trace.mu.Unlock()
}

// SpanJSON is the wire/response form of a span: the name, the start offset
// from the trace root (ns), the duration (ns), sparse attributes and
// children. It is both what "trace": true responses embed and what the
// coordinator decodes from shard responses to graft into its own tree.
type SpanJSON struct {
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// TraceJSON is the wire/response form of a whole trace.
type TraceJSON struct {
	ID   string    `json:"trace_id"`
	Root *SpanJSON `json:"root"`
}

// JSON renders the trace for a response. Unfinished spans render with the
// duration they have reached so far.
func (t *Trace) JSON() *TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &TraceJSON{ID: t.id, Root: t.root.jsonLocked(t.start)}
}

func (s *Span) jsonLocked(traceStart time.Time) *SpanJSON {
	out := &SpanJSON{
		Name:    s.name,
		StartNS: s.start.Sub(traceStart).Nanoseconds(),
		DurNS:   s.durNanos,
	}
	if out.DurNS == 0 {
		out.DurNS = time.Since(s.start).Nanoseconds()
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.jsonLocked(traceStart))
	}
	out.Children = append(out.Children, s.grafted...)
	return out
}

// Find returns the first span in the tree (depth-first) whose name matches
// pred, or nil. Test and slow-query-log helper.
func (sj *SpanJSON) Find(pred func(*SpanJSON) bool) *SpanJSON {
	if sj == nil {
		return nil
	}
	if pred(sj) {
		return sj
	}
	for _, c := range sj.Children {
		if hit := c.Find(pred); hit != nil {
			return hit
		}
	}
	return nil
}
