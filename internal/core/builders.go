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
// word) unless Options.DisableFusion splits them back apart.

// filterGroup is a maximal run of consecutive WHERE predicates over one
// column — the unit that becomes a single (possibly fused) scan node.
type filterGroup struct {
	col   string
	preds []pred.Predicate
}

// fuseFilters groups q's filters into scan units: with fusion enabled,
// consecutive filters over the same column merge into one k-predicate
// group; with fusion disabled every filter stays its own group (the unfused
// reference path differential tests pin against).
func fuseFilters(fs []Filter, fuse bool) []filterGroup {
	var out []filterGroup
	for _, f := range fs {
		if fuse && len(out) > 0 && out[len(out)-1].col == f.Col {
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

// BuildPlan compiles q into the physical plan the given strategy would
// execute against p. The plan is self-contained (columns resolved, chunk
// size and ablation switches captured) and can be annotated with modeled
// costs and executed any number of times.
func (e *Executor) BuildPlan(p *storage.Projection, q SelectQuery, s Strategy) (*plan.Plan, error) {
	if err := q.Validate(p); err != nil {
		return nil, err
	}
	groups := fuseFilters(q.Filters, !e.Opt.DisableFusion)
	var root *plan.Node
	var err error
	switch s {
	case EMPipelined:
		root, err = e.buildEMPipelined(p, q, groups)
	case EMParallel:
		root, err = e.buildEMParallel(p, q)
	case LMPipelined:
		root, err = e.buildLM(p, q, groups, true)
	case LMParallel:
		root, err = e.buildLM(p, q, groups, false)
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
			OutNames:           q.outputNames(),
			Output:             q.Output,
			GroupBy:            q.GroupBy,
			AggCol:             q.AggCol,
			Agg:                q.Agg,
			Aggregating:        q.Aggregating(),
			MatCols:            matCols(q),
			Tuples:             p.TupleCount(),
			ChunkSize:          e.Opt.chunkSize(),
			DisableMultiColumn: e.Opt.DisableMultiColumn,
			ForceBitmap:        e.Opt.ForceBitmapPositions,
			UseZoneIndex:       e.Opt.UseZoneIndex,
		},
	}, nil
}

// buildEMPipelined assembles the Figure 7(a) chain: a DS2 leaf on the first
// filter group producing early (position, value) tuples, a DS4 widen+filter
// node per further group, then DS4 widen nodes for the remaining output
// columns, topped by PROJECT (or AGG).
func (e *Executor) buildEMPipelined(p *storage.Projection, q SelectQuery, groups []filterGroup) (*plan.Node, error) {
	resolve := columnResolver(p)
	var cur *plan.Node
	if len(groups) > 0 {
		c, err := resolve(groups[0].col)
		if err != nil {
			return nil, err
		}
		cur = plan.NewDS2(groups[0].col, c, groups[0].preds)
		for _, g := range groups[1:] {
			c, err := resolve(g.col)
			if err != nil {
				return nil, err
			}
			cur = plan.NewDS4(g.col, c, g.preds, cur)
		}
	}
	for _, name := range nonFilterColumns(q) {
		c, err := resolve(name)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			cur = plan.NewDS2(name, c, nil)
		} else {
			cur = plan.NewDS4(name, c, nil, cur)
		}
	}
	return emRoot(q, cur), nil
}

// buildEMParallel assembles the Figure 7(b) plan: one SPC leaf scanning
// every referenced column in lockstep. The SPC runs one compiled kernel per
// filter and ANDs their masks, so predicates on the same column are not
// fused into one kernel here.
func (e *Executor) buildEMParallel(p *storage.Projection, q SelectQuery) (*plan.Node, error) {
	order := q.referenced()
	cols := make([]*storage.Column, len(order))
	idx := make(map[string]int, len(order))
	for i, name := range order {
		c, err := p.Column(name)
		if err != nil {
			return nil, err
		}
		cols[i] = c
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
	return emRoot(q, plan.NewSPC(order, cols, filters, outIdx)), nil
}

// buildLM assembles the late-materialization plans of Figure 8: a position
// subtree (pipelined: DS1 chained through DS3+pred narrowing nodes;
// parallel: DS1 per group ANDed) under a MERGE of DS3 extractions (or a
// compressed-direct AGG).
func (e *Executor) buildLM(p *storage.Projection, q SelectQuery, groups []filterGroup, pipelined bool) (*plan.Node, error) {
	resolve := columnResolver(p)
	var pos *plan.Node
	switch {
	case len(groups) == 0:
		pos = plan.NewPosAll()
	case pipelined:
		c, err := resolve(groups[0].col)
		if err != nil {
			return nil, err
		}
		pos = plan.NewDS1(groups[0].col, c, groups[0].preds)
		for _, g := range groups[1:] {
			c, err := resolve(g.col)
			if err != nil {
				return nil, err
			}
			pos = plan.NewFilterAt(g.col, c, g.preds, pos)
		}
	default:
		scans := make([]*plan.Node, len(groups))
		for i, g := range groups {
			c, err := resolve(g.col)
			if err != nil {
				return nil, err
			}
			scans[i] = plan.NewDS1(g.col, c, g.preds)
		}
		if len(scans) == 1 {
			pos = scans[0]
		} else {
			pos = plan.NewAND(scans...)
		}
	}

	if q.Aggregating() {
		root := plan.NewAggregate(pos, q.GroupBy, q.AggCol, q.Agg)
		for _, name := range matCols(q) {
			c, err := resolve(name)
			if err != nil {
				return nil, err
			}
			root.MatColumns = append(root.MatColumns, c)
		}
		return root, nil
	}
	extracts := make([]*plan.Node, len(q.Output))
	for i, name := range q.Output {
		c, err := resolve(name)
		if err != nil {
			return nil, err
		}
		extracts[i] = plan.NewDS3(name, c)
	}
	return plan.NewMerge(pos, extracts, q.outputNames()), nil
}

// emRoot tops an EM tuple subtree with the aggregation or projection root.
func emRoot(q SelectQuery, child *plan.Node) *plan.Node {
	if q.Aggregating() {
		return plan.NewAggregate(child, q.GroupBy, q.AggCol, q.Agg)
	}
	return plan.NewProject(child, q.Output)
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

// columnResolver caches column lookups for one build.
func columnResolver(p *storage.Projection) func(string) (*storage.Column, error) {
	cache := map[string]*storage.Column{}
	return func(name string) (*storage.Column, error) {
		if c, ok := cache[name]; ok {
			return c, nil
		}
		c, err := p.Column(name)
		if err != nil {
			return nil, err
		}
		cache[name] = c
		return c, nil
	}
}
