package core

import (
	"fmt"

	"matstore/internal/operators"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
)

// This file turns each materialization strategy into a physical-plan
// BUILDER: instead of four hand-written driver loops, every strategy
// assembles a tree of internal/plan operator nodes over the same vocabulary
// (DS1–DS4 scans, SPC, AND, DS3 extraction, MERGE, aggregation) and the
// single generic morsel executor in internal/plan runs whichever tree it is
// handed. Consecutive filters over the same column fuse into one
// multi-predicate scan node (one pass, k compiled predicates per loaded
// word).

// filterGroup is a maximal run of consecutive WHERE predicates over one
// column — the unit that becomes a single (possibly fused) scan node.
type filterGroup struct {
	col   string
	preds []pred.Predicate
}

// fuseFilters groups q's filters into scan units: consecutive filters over
// the same column merge into one k-predicate group.
func fuseFilters(fs []Filter) []filterGroup {
	var out []filterGroup
	for _, f := range fs {
		if len(out) > 0 && out[len(out)-1].col == f.Col {
			out[len(out)-1].preds = append(out[len(out)-1].preds, f.Pred)
			continue
		}
		out = append(out, filterGroup{col: f.Col, preds: []pred.Predicate{f.Pred}})
	}
	return out
}

// matCols returns the columns materialized at the top of LM plans (and the
// tuple-emission columns of EM aggregations).
func matCols(q SelectQuery) []string {
	if q.Aggregating() {
		return []string{q.GroupBy, q.AggCol}
	}
	return q.Output
}

// Table is a projection as the plan builders see it: a name, a tuple count
// and a column resolver. TableOf wraps a stored projection; StatsTable wraps
// a literal statistics table, whose plans can be priced but not run.
type Table struct {
	Name   string
	Tuples int64
	// Column resolves a column by name.
	Column func(name string) (plan.Col, error)
}

// TableOf is the one place catalog statistics are read for the cost model:
// it resolves p's columns to their handles plus the statistics every plan
// node carries — sizes, run length, bounds and distinct count from the column
// header, sort-key rank and preceding-key cluster count from the projection's
// sort key.
func TableOf(p *storage.Projection) Table {
	return Table{Name: p.Name(), Tuples: p.TupleCount(), Column: func(name string) (plan.Col, error) {
		h, err := p.Column(name)
		if err != nil {
			return plan.Col{}, err
		}
		st := plan.ColStats{
			Blocks: float64(h.NumBlocks()), Tuples: float64(h.TupleCount()),
			RunLen: h.AvgRunLen(), Distinct: h.Distinct(), Clusters: 1,
		}
		st.Min, st.Max = h.MinMax()
		clusters := 1.0
		for i, key := range p.Meta.SortKey {
			if key == name {
				st.SortRank, st.Clusters = i+1, clusters
				break
			}
			for _, cm := range p.Meta.Columns {
				if cm.Name == key {
					clusters *= float64(cm.Distinct)
					break
				}
			}
		}
		return plan.Col{Name: name, Handle: h, Stats: st}, nil
	}}
}

// StatsTable is a Table over literal column statistics — the model's
// property tests and csmodel's paper-scale mode price the same builders'
// trees over it that a stored projection would get.
func StatsTable(name string, tuples int64, cols map[string]plan.ColStats) Table {
	return Table{Name: name, Tuples: tuples, Column: func(col string) (plan.Col, error) {
		st, ok := cols[col]
		if !ok {
			return plan.Col{}, fmt.Errorf("core: projection %s has no column %q", name, col)
		}
		return plan.Col{Name: col, Stats: st}, nil
	}}
}

// resolveAll resolves names in order.
func resolveAll(t Table, names []string) ([]plan.Col, error) {
	cols := make([]plan.Col, len(names))
	for i, name := range names {
		var err error
		if cols[i], err = t.Column(name); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// BuildPlan compiles q into the physical plan the given strategy would
// execute against p. The plan is self-contained (columns and their
// statistics resolved, chunk size captured) and can be priced by the cost
// model and executed any number of times.
func (e *Executor) BuildPlan(p *storage.Projection, q SelectQuery, s Strategy) (*plan.Plan, error) {
	return e.BuildPlanOn(TableOf(p), q, s)
}

// BuildPlanOn is BuildPlan over any Table. Building reads no data.
func (e *Executor) BuildPlanOn(t Table, q SelectQuery, s Strategy) (*plan.Plan, error) {
	if err := q.check(); err != nil {
		return nil, err
	}
	groups := fuseFilters(q.Filters)
	var root *plan.Node
	var err error
	switch s {
	case EMPipelined:
		root, err = buildEMPipelined(t, q, groups)
	case EMParallel:
		root, err = buildEMParallel(t, q)
	case LMPipelined:
		root, err = buildLM(t, q, groups, true)
	case LMParallel:
		root, err = buildLM(t, q, groups, false)
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", s)
	}
	if err != nil {
		return nil, err
	}
	return &plan.Plan{
		Label: s.String(),
		Root:  root,
		Spec: plan.Spec{
			OutNames:    q.outputNames(),
			Output:      q.Output,
			GroupBy:     q.GroupBy,
			AggCol:      q.AggCol,
			Agg:         q.Agg,
			Aggregating: q.Aggregating(),
			MatCols:     matCols(q),
			Tuples:      t.Tuples,
			ChunkSize:   e.Opt.chunkSize(),
		},
	}, nil
}

// buildEMPipelined assembles the Figure 7(a) chain: a DS2 leaf on the first
// filter group producing early (position, value) tuples, a DS4 widen+filter
// node per further group, then DS4 widen nodes for the remaining output
// columns, topped by PROJECT (or AGG).
func buildEMPipelined(t Table, q SelectQuery, groups []filterGroup) (*plan.Node, error) {
	var cur *plan.Node
	for i, g := range groups {
		c, err := t.Column(g.col)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cur = plan.NewDS2(c, g.preds)
		} else {
			cur = plan.NewDS4(c, g.preds, cur)
		}
	}
	for _, name := range nonFilterColumns(q) {
		c, err := t.Column(name)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = plan.NewDS2(c, nil)
		} else {
			cur = plan.NewDS4(c, nil, cur)
		}
	}
	return emRoot(t, q, cur)
}

// buildEMParallel assembles the Figure 7(b) plan: one SPC leaf scanning
// every referenced column in lockstep. The SPC runs one compiled kernel per
// filter and ANDs their masks, so predicates on the same column are not
// fused into one kernel here.
func buildEMParallel(t Table, q SelectQuery) (*plan.Node, error) {
	order := q.referenced()
	cols, err := resolveAll(t, order)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, len(order))
	for i, name := range order {
		idx[name] = i
	}
	filters := make([]operators.IndexedPred, len(q.Filters))
	for i, f := range q.Filters {
		filters[i] = operators.IndexedPred{Col: idx[f.Col], Pred: f.Pred}
	}
	outNames := matCols(q)
	outIdx := make([]int, len(outNames))
	for i, name := range outNames {
		outIdx[i] = idx[name]
	}
	return emRoot(t, q, plan.NewSPC(cols, filters, outIdx))
}

// buildLM assembles the late-materialization plans of Figure 8: a position
// subtree (pipelined: DS1 chained through DS3+pred narrowing nodes;
// parallel: DS1 per group ANDed) under a MERGE of DS3 extractions (or a
// compressed-direct AGG).
func buildLM(t Table, q SelectQuery, groups []filterGroup, pipelined bool) (*plan.Node, error) {
	scans := make([]*plan.Node, len(groups))
	var pos *plan.Node
	for i, g := range groups {
		c, err := t.Column(g.col)
		if err != nil {
			return nil, err
		}
		if pipelined && i > 0 {
			pos = plan.NewFilterAt(c, g.preds, pos)
		} else {
			pos = plan.NewDS1(c, g.preds)
		}
		scans[i] = pos
	}
	switch {
	case len(groups) == 0:
		pos = plan.NewPosAll()
	case !pipelined && len(scans) > 1:
		pos = plan.NewAND(scans...)
	}

	mat, err := resolveAll(t, matCols(q))
	if err != nil {
		return nil, err
	}
	if q.Aggregating() {
		root := plan.NewAggregate(pos, mat[0], q.AggCol, q.Agg)
		for _, c := range mat {
			root.MatColumns = append(root.MatColumns, c.Handle)
		}
		return root, nil
	}
	extracts := make([]*plan.Node, len(mat))
	for i, c := range mat {
		extracts[i] = plan.NewDS3(c)
	}
	return plan.NewMerge(pos, extracts, q.outputNames()), nil
}

// emRoot tops an EM tuple subtree with the aggregation or projection root.
func emRoot(t Table, q SelectQuery, child *plan.Node) (*plan.Node, error) {
	if !q.Aggregating() {
		return plan.NewProject(child, q.Output), nil
	}
	g, err := t.Column(q.GroupBy)
	if err != nil {
		return nil, err
	}
	return plan.NewAggregate(child, g, q.AggCol, q.Agg), nil
}

// nonFilterColumns returns the referenced columns that carry no filter, in
// first-use order — the pure widening columns of EM-pipelined plans.
func nonFilterColumns(q SelectQuery) []string {
	filtered := map[string]bool{}
	for _, f := range q.Filters {
		filtered[f.Col] = true
	}
	var out []string
	for _, name := range q.referenced() {
		if !filtered[name] {
			out = append(out, name)
		}
	}
	return out
}
