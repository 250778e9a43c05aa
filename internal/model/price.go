package model

import "matstore/internal/plan"

// This file is the model's one composition: Price walks the physical plan
// the executor would run (a core.BuildPlan/BuildJoinPlan tree) and charges
// every node its Figure 1–6 operator formula — or, for joins, its Section 4.3
// build/probe term — from the column statistics the node carries. Nothing
// else composes the formulas: the advisors, the admission grant sizer, the
// result-cache cost threshold, Figure 10, EXPLAIN's per-node column and the
// calibration features are all this walk over the same tree, so a refit of
// the constants tunes exactly the function the advisor steers on.

// Cost is a decomposed cost in microseconds.
type Cost = plan.Cost

// Estimate is the price of one plan: its total, plus the two quantities the
// morsel-parallel split (AtWorkers) needs beyond the total.
type Estimate struct {
	// Cost is the serial (one-worker) total — the sum of the per-node costs.
	Cost
	// Tail is the part of Cost.CPU that stays on the coordinator at any
	// worker count: the final result iteration plus, for aggregations,
	// emitting the sorted group tuples.
	Tail float64
	// Rows is the estimated number of rows the root emits (groups when
	// Aggregating); Concat the Figure 5 cost of copying each of their values
	// once more.
	Rows, Concat float64
	Aggregating  bool
}

// Price predicts the cost of running p, deriving selectivities from the
// column bounds on the nodes and position-run lengths from their sort-key
// rank. hot=false charges full scan I/O (the cold-start case). It writes
// nothing: a plan shared through the service's plan cache can be priced while
// it runs.
func (m Constants) Price(p *plan.Plan, hot bool) Estimate { return m.price(p, hot, nil) }

// AnnotatePlan is Price that also stores every node's share in the node
// (Modeled/HasModel) for EXPLAIN's rendering and the trace's model_us
// attributes. It writes into the tree, so the tree must be private to the
// caller.
func (m Constants) AnnotatePlan(p *plan.Plan, hot bool) Estimate {
	return m.price(p, hot, func(n *plan.Node, c Cost) { n.Modeled, n.HasModel = c, true })
}

// price is the walk behind both; sink, when set, sees every node's own cost
// in a fixed (tree-determined) order.
func (m Constants) price(p *plan.Plan, hot bool, sink func(*plan.Node, Cost)) Estimate {
	w := &walker{m: m, sink: sink, accessed: map[string]bool{}}
	if hot {
		w.f = 1
	}
	if p.Spec.Tuples > 0 {
		w.tuples = float64(p.Spec.Tuples)
	} else {
		w.tuples = 1 // avoid 0/0 on empty projections; costs degenerate to ~0
	}

	root := p.Root
	est := Estimate{Aggregating: root.Kind == plan.KindAggregate}
	var cpu float64 // the root's own CPU before output iteration
	switch {
	case p.JoinProbe() != nil:
		est.Rows = w.join(p.JoinProbe())

	case root.Kind == plan.KindMerge:
		frac, rlp := w.pos(root.Children[0])
		est.Rows = frac * w.tuples
		for _, ds3 := range root.Children[1:] {
			dcpu, dio := m.DS3(w.stats(ds3.Stats), est.Rows, rlp, frac, w.reuse(ds3.Col))
			w.emit(ds3, dcpu, dio)
		}

	case est.Aggregating && root.Children[0].PositionsDomain():
		frac, _ := w.pos(root.Children[0])
		est.Rows = groups(root, frac)
		// Aggregation directly on compressed mini-columns: walking the
		// matched key runs plus emitting group tuples.
		cpu = frac*w.tuples/w.stats(root.Stats).rl()*(m.TICCOL+m.FC) + est.Rows*m.TICTUP

	case est.Aggregating:
		in := w.tuple(root.Children[0])
		est.Rows = groups(root, in/w.tuples)
		// Hash aggregation over constructed tuples plus group emission.
		cpu = in*(m.TICTUP+m.FC) + est.Rows*m.TICTUP

	default:
		est.Rows = w.tuple(root.Children[0])
	}
	// One extra copy of every output value: what the MERGE root pays to
	// stitch its DS3 streams, and what concatenating per-morsel row partials
	// costs any row-emitting plan run in parallel.
	est.Concat = m.Merge(est.Rows, len(p.Spec.OutNames))
	if root.Kind == plan.KindMerge {
		cpu += est.Concat
	}
	est.Tail = m.OutputIteration(est.Rows)
	w.emit(root, cpu+est.Tail, 0)
	if est.Aggregating {
		est.Tail += est.Rows * m.TICTUP
	}
	est.Cost = w.total
	return est
}

// AtWorkers extends the paper's single-threaded model to morsel-parallel
// execution, following the executor: the plan body (data sources, AND,
// per-morsel merge/aggregation) runs on W workers over disjoint block ranges,
// the coordinator tail does not divide, recombining partials is extra work
// serial execution never pays — one more copy of every output value for row
// results, folding W partial aggregate states of up to Rows groups each for
// aggregations — and the I/O term models a single disk arm, which parallel
// workers share rather than multiply (an Amdahl split with the paper's own
// cost terms; with a warm pool F=1 and the term is zero anyway).
// workers <= 1 returns the serial cost.
func (m Constants) AtWorkers(e Estimate, workers int) Cost {
	if workers <= 1 {
		return e.Cost
	}
	w := float64(workers)
	overhead := e.Concat
	if e.Aggregating {
		overhead = w * e.Rows * m.TICTUP
	}
	body := e.CPU - e.Tail
	if body < 0 {
		body = 0
	}
	return Cost{CPU: body/w + e.Tail + overhead, IO: e.IO}
}

// Speedup returns the predicted parallel speedup at the given worker count
// (serial total / parallel total).
func (m Constants) Speedup(e Estimate, workers int) float64 {
	par := m.AtWorkers(e, workers).Total()
	if par <= 0 {
		return 1
	}
	return e.Total() / par
}

// Cheapest returns the index of the lowest total in costs — the optimizer
// decision procedure the paper proposes. The first strictly cheaper candidate
// wins, so ties resolve to the earlier one (two strategies that build the
// same tree get the same price; the caller's order decides).
func Cheapest(costs []Cost) int {
	best := 0
	for i, c := range costs {
		if c.Total() < costs[best].Total() {
			best = i
		}
	}
	return best
}

type walker struct {
	m      Constants
	f      float64 // F: the buffer-resident fraction of every column
	tuples float64 // the projection's extent in positions
	sink   func(*plan.Node, Cost)
	total  Cost
	// accessed tracks columns the position subtree touched (their blocks
	// are pool-resident for DS3, the multi-column free-reuse case).
	accessed map[string]bool
}

// emit charges one node: every microsecond of the estimate enters here, so
// the total is the sum of what the sink sees.
func (w *walker) emit(n *plan.Node, cpu, io float64) {
	w.total = w.total.Add(cpu, io)
	if w.sink != nil {
		w.sink(n, Cost{CPU: cpu, IO: io})
	}
}

func (w *walker) stats(s plan.ColStats) ColumnStats {
	return ColumnStats{Blocks: s.Blocks, Tuples: s.Tuples, RunLen: s.RunLen, F: w.f}
}

// reuse reports whether a DS3 over col finds the column's mini-column
// retained by the multi-column optimization (no I/O, Figure 2's F=1 case).
func (w *walker) reuse(col string) bool {
	return w.accessed[col]
}

// posRuns estimates RLp for the output of n's own predicates from the
// projection sort key: see ColStats.Clusters.
func (w *walker) posRuns(n *plan.Node, sf float64) float64 {
	return EstimatePosRuns(w.stats(n.Stats), sf, n.Stats.SortRank > 0, n.Stats.Clusters)
}

// join prices a join tree (PROJECT over JOINPROBE) with the Section 4.3
// cost terms — the blocking build over the inner table, the outer position
// scan (priced by pos), the batched probe with its per-strategy payload
// access — and returns the output cardinality: the surviving outer fraction
// times the inner table's average matches per key (tuples over distinct keys
// — exact for the paper's FK join). The paper frames the right-side choice
// exactly like the selection strategies: constructing right tuples before
// the join (EM) pays tuple construction at build; sending the right table as
// compressed multi-columns defers the payload extraction to each probe match;
// sending only the join column (pure LM) pays an extra non-merge positional
// join after the probe, because right positions emerge in left order.
func (w *walker) join(probe *plan.Node) (out float64) {
	build := probe.Children[1]
	key := w.stats(build.Stats)
	payload := make([]ColumnStats, len(build.RightStats))
	for i, s := range build.RightStats {
		payload[i] = w.stats(s)
	}
	cpu, io := w.m.JoinBuild(key, payload, build.RightStrategy)
	w.emit(build, cpu, io)

	frac, rlp := w.pos(probe.Children[0])
	probes := frac * w.tuples
	out = probes
	if d := build.Stats.Distinct; d > 0 {
		out = probes * key.Tuples / float64(d)
	}
	cpu, io = w.m.JoinProbe(probes, out, len(probe.LeftStats), payload, build.RightStrategy, key.Tuples)
	// The batched probe-key gather plus the outer payload gathers: a DS3 per
	// column at the surviving positions (free re-access when the position
	// scan already touched the column — the predicated join key's mini-column
	// is retained by the multi-column optimization).
	gather := func(name string, s plan.ColStats) {
		dcpu, dio := w.m.DS3(w.stats(s), probes, rlp, frac, w.reuse(name))
		cpu += dcpu
		io += dio
	}
	gather(probe.Col, probe.Stats)
	for i, s := range probe.LeftStats {
		gather(probe.OutCols[i], s)
	}
	w.emit(probe, cpu, io)
	return out
}

// pos prices a position-domain subtree bottom-up, returning the fraction of
// the projection's tuples surviving and the estimated position-run length
// of the produced list.
func (w *walker) pos(n *plan.Node) (frac, rlp float64) {
	switch n.Kind {
	case plan.KindPosAll:
		w.emit(n, 0, 0)
		return 1, w.tuples

	case plan.KindDS1:
		sf := conjSF(n)
		cpu, io := w.m.DS1(w.stats(n.Stats), sf)
		w.emit(n, cpu, io)
		w.accessed[n.Col] = true
		return sf, w.posRuns(n, sf)

	case plan.KindAND:
		lists := make([]PosList, len(n.Children))
		frac = 1
		for i, c := range n.Children {
			f, rl := w.pos(c)
			lists[i] = PosList{Positions: f * w.tuples, RunLen: rl}
			frac *= f
			if i == 0 || rl < rlp {
				rlp = rl
			}
		}
		w.emit(n, w.m.AND(lists...), 0)
		return frac, rlp

	case plan.KindFilterAt:
		inFrac, inRlp := w.pos(n.Children[0])
		sf := conjSF(n)
		poslist := inFrac * w.tuples
		// DS3 over this column at the incoming positions plus a predicate
		// application per extracted value (the pipelined narrowing term).
		cpu, io := w.m.DS3(w.stats(n.Stats), poslist, inRlp, inFrac, false)
		w.emit(n, cpu+poslist*w.m.FC, io)
		w.accessed[n.Col] = true
		return inFrac * sf, min(w.posRuns(n, sf), inRlp)

	default:
		w.emit(n, 0, 0)
		return 1, 1
	}
}

// tuple prices a tuple-domain subtree bottom-up, returning the number of
// early-materialized tuples flowing out.
func (w *walker) tuple(n *plan.Node) float64 {
	switch n.Kind {
	case plan.KindDS2:
		sf := conjSF(n)
		cpu, io := w.m.DS2(w.stats(n.Stats), sf)
		w.emit(n, cpu, io)
		return sf * n.Stats.Tuples

	case plan.KindDS4:
		in := w.tuple(n.Children[0])
		cs := w.stats(n.Stats)
		sf := conjSF(n)
		cpu, io := w.m.DS4(cs, in, sf)
		// Pipelined block skipping: only the fraction of this column's
		// blocks containing surviving positions is read and iterated. With
		// clustered matches (sorted first column) that fraction approaches
		// the incoming selectivity.
		skip := min(in/w.tuples, 1)
		w.emit(n, cpu-(1-skip)*cs.Blocks*w.m.BIC, io*skip)
		return in * sf

	case plan.KindSPC:
		cols := make([]ColumnStats, len(n.SPCStats))
		sfs := make([]float64, len(n.SPCStats))
		for i, s := range n.SPCStats {
			cols[i] = w.stats(s)
			sfs[i] = 1
		}
		out := w.tuples
		for _, f := range n.SPCFilters {
			sf := f.Pred.Selectivity(n.SPCStats[f.Col].Min, n.SPCStats[f.Col].Max)
			sfs[f.Col] *= sf
			out *= sf
		}
		cpu, io := w.m.SPC(cols, sfs)
		w.emit(n, cpu, io)
		return out

	default:
		w.emit(n, 0, 0)
		return 0
	}
}

// conjSF estimates the selectivity of a node's (possibly fused) predicate
// conjunction against its column's min/max statistics. The simplified form
// is used so a fused interval pair is estimated as one interval, not as the
// product of two overlapping half-bounds.
func conjSF(n *plan.Node) float64 {
	sf := 1.0
	for _, p := range n.ExecPreds() {
		sf *= p.Selectivity(n.Stats.Min, n.Stats.Max)
	}
	return sf
}

// groups estimates an aggregation's group count: the group-by column's
// distinct count scaled by the surviving fraction, at least one.
func groups(agg *plan.Node, frac float64) float64 {
	return max(float64(agg.Stats.Distinct)*frac, 1)
}

// EstimatePosRuns estimates RLp, the average run length of the position
// list produced by a predicate with selectivity sf over a column: for
// sorted/RLE columns matches are contiguous within each sorted segment
// (clusters estimates how many such segments the matches split across,
// e.g. the number of primary-sort-key groups when the column is the
// secondary sort key); for unsorted columns runs average ~1/(1-sf)
// (geometric runs of independent matches).
func EstimatePosRuns(c ColumnStats, sf float64, sorted bool, clusters float64) float64 {
	if sf <= 0 {
		return 1
	}
	if sorted {
		if clusters < 1 {
			clusters = 1
		}
		rl := sf * c.Tuples / clusters
		if rl < 1 {
			return 1
		}
		return rl
	}
	if sf >= 1 {
		return c.Tuples
	}
	return 1 / (1 - sf)
}
