package perf

import (
	"encoding/json"
	"os"
	"sort"
	"strings"

	"matstore/internal/obs"
)

// Span is one timed region of a traced op, as the driver records it: the
// spans the driver opens around its own calls, plus the span tree the
// program returns for the op ("trace": true, ExplainTraced), re-based onto
// the driver's clock. Spans of one op share its Op id.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the traced window began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Node marks a plan-node span, which the program synthesizes from
	// per-node counters: AccumNS is the node's self time summed over every
	// chunk of every worker. Start and End are laid out by the driver (see
	// Graft) so that the nodes cover their phase rather than stack up at its
	// start.
	Node    bool           `json:"node,omitempty"`
	AccumNS int64          `json:"accum_ns,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Dur is the span's duration in nanoseconds.
func (s *Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps the spans of a traced window in memory; they are written
// out once, when the run ends.
type Recorder struct {
	Spans []*Span
}

// Add records a span and returns it.
func (r *Recorder) Add(parent *Span, op int, name string, start, end int64) *Span {
	s := &Span{Parent: -1, Op: op, Name: name, Start: start, End: end}
	if parent != nil {
		s.Parent = parent.ID
	}
	s.ID = len(r.Spans)
	r.Spans = append(r.Spans, s)
	return s
}

// Graft re-bases a span tree returned by the program under parent. The
// program's clock offsets are relative to its own root, whose position
// inside parent is unknown, so the root is anchored at parent's start and
// everything is clipped to parent: what matters downstream is how much of
// parent the tree covers, not where.
//
// Plan-node spans (attr accum) carry summed self time, not an interval: all
// node spans of a phase are flattened to children of the phase and laid end
// to end, each as long as its accumulated time divided by the phase's
// workers, so that together they cover the share of the phase's wall time
// the nodes account for.
func (r *Recorder) Graft(parent *Span, op int, tree *obs.SpanJSON) *Span {
	if tree == nil {
		return nil
	}
	return r.graft(parent, op, tree, parent.Start-tree.StartNS)
}

func (r *Recorder) graft(parent *Span, op int, t *obs.SpanJSON, shift int64) *Span {
	clip := func(v int64) int64 {
		if v < parent.Start {
			return parent.Start
		}
		if v > parent.End {
			return parent.End
		}
		return v
	}
	s := r.Add(parent, op, t.Name, clip(t.StartNS+shift), clip(t.StartNS+t.DurNS+shift))
	s.Attrs = t.Attrs
	workers, _ := t.Attrs["workers"].(float64)
	if m, ok := t.Attrs["morsels"].(float64); ok && m < workers {
		workers = m // a worker without a morsel never runs
	}
	if workers < 1 {
		workers = 1
	}
	cursor := s.Start
	var layNodes func(n *obs.SpanJSON)
	layNodes = func(n *obs.SpanJSON) {
		end := cursor
		// The build node's time was spent in the join.build phase, which has
		// a span of its own; it covers nothing of this one.
		if !strings.HasPrefix(n.Name, "JOINBUILD") {
			end += n.DurNS / int64(workers)
		}
		if end > s.End {
			end = s.End
		}
		ns := r.Add(s, op, n.Name, cursor, end)
		ns.Node, ns.AccumNS, ns.Attrs = true, n.DurNS, n.Attrs
		cursor = end
		for _, c := range n.Children {
			layNodes(c)
		}
	}
	for _, c := range t.Children {
		if accum, _ := c.Attrs["accum"].(bool); accum {
			layNodes(c)
			continue
		}
		// A remote (shard) sub-tree keeps its own clock: anchor it at the
		// start of the span it was grafted under.
		childShift := shift
		if strings.HasPrefix(t.Name, "shard ") {
			childShift = s.Start - c.StartNS
		}
		r.graft(s, op, c, childShift)
	}
	return s
}

// Children indexes the recorded spans by parent id.
func (r *Recorder) Children() map[int][]*Span {
	m := make(map[int][]*Span)
	for _, s := range r.Spans {
		if s.Parent >= 0 {
			m[s.Parent] = append(m[s.Parent], s)
		}
	}
	return m
}

// SelfTime is a span's duration minus the part of its interval that its
// children cover. Taking the union of the children's intervals, clipped to
// the span, handles sequential, nested-and-overlapping and parallel children
// (fan-out shards) alike: parallel children count once, as cover, not as a
// sum.
func SelfTime(s *Span, children []*Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			covered += v.b - v.a
		} else {
			covered += v.b - end
		}
		end = v.b
	}
	return s.Dur() - covered
}

// WriteFile writes the recorded spans as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	raw, err := json.Marshal(r.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
