// Package plan defines the physical-plan layer: a small IR of operator
// nodes — the paper's data-source cases (DS1–DS4), the SPC leaf, position
// AND, DS3 value extraction, MERGE, tuple widening and aggregation — from
// which the four materialization strategies are composed as explicit node
// trees, plus one generic morsel-parallel executor that runs any such tree.
//
// The strategies of internal/core are plan *builders*: each assembles a
// different tree over the same node vocabulary (EM-pipelined chains DS2→DS4,
// EM-parallel plants an SPC leaf, LM-parallel ANDs DS1 scans, LM-pipelined
// chains DS1→DS3+pred), and the executor here interprets whichever shape it
// is handed, chunk-at-a-time inside chunk-aligned morsels. This is the
// plan/kernel separation of MorphStore and Rozenberg's column-store model:
// the tree states WHAT is composed, the compiled kernels underneath
// (internal/pred, internal/kernels) do the work.
//
// Every node carries the catalog statistics of the columns it reads (ColStats,
// filled by the builder's column resolver) — the cost model's only input: it
// prices the tree it is handed and reads nothing else. EXPLAIN additionally
// uses two annotation slots: the model's per-node prediction (stored by
// internal/model's AnnotatePlan on EXPLAIN's private tree) and observed
// execution counters (filled when a plan runs with observation enabled),
// rendered side by side.
package plan

import (
	"fmt"
	"strings"
	"sync/atomic"

	"matstore/internal/operators"
	"matstore/internal/pred"
	"matstore/internal/storage"
)

// Kind identifies a physical operator node.
type Kind uint8

const (
	// KindDS1 scans a column with a predicate conjunction, producing
	// positions (data-source case 1).
	KindDS1 Kind = iota
	// KindDS2 scans a column with a predicate conjunction, producing early
	// (position, value) tuples (case 2) — the EM-pipelined leaf.
	KindDS2
	// KindDS3 extracts a column's values at the surviving positions
	// (case 3); a Merge or Aggregate parent supplies the position input.
	KindDS3
	// KindDS4 jumps to the positions of early-materialized input tuples,
	// applies its predicates and widens the passing tuples (case 4).
	KindDS4
	// KindSPC is the scan-predicate-construct leaf of EM-parallel plans:
	// all columns scanned in lockstep, tuples constructed at the bottom.
	KindSPC
	// KindAND intersects its children's position sets (Section 3.3).
	KindAND
	// KindFilterAt narrows an incoming position set by predicates over one
	// column (the DS3+predicate step of pipelined LM plans).
	KindFilterAt
	// KindPosAll produces the chunk's full position range (no filters).
	KindPosAll
	// KindMerge is the n-ary MERGE tuple constructor over DS3 extractions.
	KindMerge
	// KindProject emits a tuple batch's output columns into the result.
	KindProject
	// KindAggregate folds its input (tuples or positions+columns) into
	// grouped aggregates.
	KindAggregate
	// KindJoinBuild is the blocking hash-build side of an equi-join: a
	// radix-partitioned, morsel-parallel scan of the inner key column into
	// per-partition hash tables, with the inner payload materialized per the
	// node's RightStrategy (Section 4.3). It runs in the plan's build-barrier
	// phase, before any probe morsel starts.
	KindJoinBuild
	// KindJoinProbe streams outer-table positions (Children[0]) against the
	// built hash side (Children[1]), gathering probe keys and outer payload
	// values batched per chunk and emitting joined tuples.
	KindJoinProbe
)

func (k Kind) String() string {
	switch k {
	case KindDS1:
		return "DS1"
	case KindDS2:
		return "DS2"
	case KindDS3:
		return "DS3"
	case KindDS4:
		return "DS4"
	case KindSPC:
		return "SPC"
	case KindAND:
		return "AND"
	case KindFilterAt:
		return "DS3+PRED"
	case KindPosAll:
		return "ALLPOS"
	case KindMerge:
		return "MERGE"
	case KindProject:
		return "PROJECT"
	case KindAggregate:
		return "AGG"
	case KindJoinBuild:
		return "JOINBUILD"
	case KindJoinProbe:
		return "JOINPROBE"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Cost is a modeled cost in microseconds, CPU and I/O separately — of one
// node or of a whole plan (model.Cost and matstore.Cost are this type).
type Cost struct {
	CPU float64
	IO  float64
}

// Total returns CPU+IO.
func (c Cost) Total() float64 { return c.CPU + c.IO }

// Add accumulates another cost.
func (c Cost) Add(cpu, io float64) Cost { return Cost{c.CPU + cpu, c.IO + io} }

func (c Cost) String() string { return fmt.Sprintf("cpu=%.0fµs io=%.0fµs", c.CPU, c.IO) }

// ColStats is what the catalog knows about one stored column, carried by
// value on the nodes that read it so that pricing a plan touches no storage.
type ColStats struct {
	// Blocks is |Ci|, Tuples ||Ci||, RunLen RLc (Table 1 notation).
	Blocks, Tuples, RunLen float64
	// Min, Max and Distinct are the column's value bounds and distinct count
	// (an upper bound for sorted data: the run count).
	Min, Max, Distinct int64
	// SortRank is the column's 1-based rank in the projection's sort key, 0
	// when it is not part of it. Clusters is the product of the distinct
	// counts of the sort-key columns before it: a predicate over the k-th
	// key column matches one contiguous position run inside each combination
	// of the preceding key columns, which is what the model's position-run
	// estimate needs.
	SortRank int
	Clusters float64
}

// Col is a resolved column: its name, the handle the executor reads through
// and the statistics the model prices it with. Handle is nil when the column
// was resolved over a literal statistics table — such a plan can be priced
// and rendered, not run.
type Col struct {
	Name   string
	Handle *storage.Column
	Stats  ColStats
}

// split separates resolved columns into the parallel slices a node stores.
func split(cols []Col) (names []string, handles []*storage.Column, stats []ColStats) {
	names = make([]string, len(cols))
	handles = make([]*storage.Column, len(cols))
	stats = make([]ColStats, len(cols))
	for i, c := range cols {
		names[i], handles[i], stats[i] = c.Name, c.Handle, c.Stats
	}
	return names, handles, stats
}

// Observed is a node's execution counters, accumulated across all chunks of
// all morsels (atomically — morsels run on concurrent workers).
type Observed struct {
	// Rows is the number of rows/positions/tuples the node produced.
	Rows atomic.Int64
	// Nanos is the node's own accumulated execution time (children's
	// evaluation excluded).
	Nanos atomic.Int64
	// Chunks is the number of chunk invocations.
	Chunks atomic.Int64
}

func (o *Observed) add(rows, nanos int64) {
	o.Rows.Add(rows)
	o.Nanos.Add(nanos)
	o.Chunks.Add(1)
}

// Node is one physical operator. The meaning of Children depends on Kind:
// Merge and Aggregate over positions take the position subtree as
// Children[0] (Merge's remaining children are its DS3 extractions); DS4,
// FilterAt, Project and tuple-domain Aggregate take their single input as
// Children[0]; AND takes its position inputs; leaves have none.
type Node struct {
	Kind     Kind
	Children []*Node

	// Col and Column name and resolve the column of scan/extract/widen
	// nodes; Stats are its catalog statistics. On an Aggregate node Stats
	// describes the GroupBy column (group count and key-run estimates).
	Col    string
	Column *storage.Column
	Stats  ColStats
	// Preds is the node's predicate conjunction as written in the query
	// (k>1 means a fused multi-predicate scan). Conj is that conjunction
	// compiled when the node is built — simplified form, kernel and accepted
	// set — which every chunk of every run applies.
	Preds []pred.Predicate
	Conj  *pred.Conj

	// SPC leaf configuration.
	SPCNames   []string
	SPCColumns []*storage.Column
	SPCStats   []ColStats
	SPCFilters []operators.IndexedPred
	SPCOutIdx  []int

	// OutCols are the emitted column names (Merge, Project).
	OutCols []string
	// GroupBy/AggCol/Agg configure an Aggregate node.
	GroupBy, AggCol string
	Agg             operators.AggFunc
	// MatColumns are the resolved Spec.MatCols handles of a
	// position-domain Aggregate node (which re-windows a mini-column the
	// position subtree's scans did not leave in the multi-column).
	MatColumns []*storage.Column

	// Join-node configuration. A JoinBuild node names the inner key in Col
	// (Column resolves it) and carries the payload schema and materialization
	// strategy; Partitions overrides the radix partition count (0 derives the
	// next power of two of the worker count at run time). A JoinProbe node
	// names the outer key in Col and its outer payload in OutCols/LeftCols.
	// Proj names the inner projection a JoinBuild scans — the identity a
	// shared build cache keys on.
	Proj          string
	RightStrategy operators.RightStrategy
	RightPayload  []string
	RightCols     []*storage.Column
	RightStats    []ColStats
	Partitions    int
	// LeftCols are the probe node's resolved outer payload columns (aligned
	// with OutCols), LeftStats their statistics.
	LeftCols  []*storage.Column
	LeftStats []ColStats
	// built retains the most recent observed build-barrier phase's
	// partitioned hash side for the EXPLAIN renderer alone; execution itself
	// threads the table through the run.
	built *operators.PartitionedTable

	// Modeled is the analytical model's cost prediction for this node
	// (valid when HasModel). Only model.AnnotatePlan stores it, and only
	// EXPLAIN and traced runs call that, on trees no other request shares;
	// estimates and the advisors price without writing (model.Price).
	Modeled  Cost
	HasModel bool
	// Obs accumulates observed execution counters when the plan runs with
	// observation enabled.
	Obs Observed
}

// Fused reports whether the node evaluates a fused multi-predicate
// conjunction (more than one predicate as written).
func (n *Node) Fused() bool { return len(n.Preds) > 1 }

// NewDS1 builds a DS1 position-scan leaf.
func NewDS1(c Col, preds []pred.Predicate) *Node {
	return &Node{Kind: KindDS1, Col: c.Name, Column: c.Handle, Stats: c.Stats, Preds: preds, Conj: pred.CompileConj(preds)}
}

// NewDS2 builds a DS2 early-materialization scan leaf.
func NewDS2(c Col, preds []pred.Predicate) *Node {
	return &Node{Kind: KindDS2, Col: c.Name, Column: c.Handle, Stats: c.Stats, Preds: preds, Conj: pred.CompileConj(preds)}
}

// NewDS3 builds a DS3 value-extraction node (positions supplied by the
// Merge/Aggregate parent).
func NewDS3(c Col) *Node {
	return &Node{Kind: KindDS3, Col: c.Name, Column: c.Handle, Stats: c.Stats}
}

// NewDS4 builds a DS4 widening node over a tuple-domain child. Empty preds
// widen unconditionally (a pure output column).
func NewDS4(c Col, preds []pred.Predicate, child *Node) *Node {
	return &Node{Kind: KindDS4, Col: c.Name, Column: c.Handle, Stats: c.Stats, Preds: preds, Conj: pred.CompileConj(preds), Children: []*Node{child}}
}

// NewSPC builds the scan-predicate-construct leaf.
func NewSPC(cols []Col, filters []operators.IndexedPred, outIdx []int) *Node {
	n := &Node{Kind: KindSPC, SPCFilters: filters, SPCOutIdx: outIdx}
	n.SPCNames, n.SPCColumns, n.SPCStats = split(cols)
	return n
}

// NewAND builds a position-intersection node.
func NewAND(children ...*Node) *Node {
	return &Node{Kind: KindAND, Children: children}
}

// NewFilterAt builds a DS3+predicate position-narrowing node.
func NewFilterAt(c Col, preds []pred.Predicate, child *Node) *Node {
	return &Node{Kind: KindFilterAt, Col: c.Name, Column: c.Handle, Stats: c.Stats, Preds: preds, Conj: pred.CompileConj(preds), Children: []*Node{child}}
}

// NewPosAll builds the filterless full-range position source.
func NewPosAll() *Node { return &Node{Kind: KindPosAll} }

// NewMerge builds the MERGE tuple constructor: pos is the position subtree,
// extracts the DS3 children (one per output column, aligned with outCols).
func NewMerge(pos *Node, extracts []*Node, outCols []string) *Node {
	return &Node{Kind: KindMerge, Children: append([]*Node{pos}, extracts...), OutCols: outCols}
}

// NewProject builds the result-emission root over a tuple-domain child.
func NewProject(child *Node, outCols []string) *Node {
	return &Node{Kind: KindProject, Children: []*Node{child}, OutCols: outCols}
}

// NewAggregate builds an aggregation root. The child is either a tuple
// subtree (EM) or a position subtree (LM, aggregating directly on
// compressed mini-columns). groupBy's statistics stay on the node: the model
// estimates the group count from them.
func NewAggregate(child *Node, groupBy Col, aggCol string, fn operators.AggFunc) *Node {
	return &Node{Kind: KindAggregate, Children: []*Node{child}, GroupBy: groupBy.Name, Stats: groupBy.Stats, AggCol: aggCol, Agg: fn}
}

// NewJoinBuild builds the blocking inner-side hash-build node. partitions
// overrides the radix partition count (0 = next power of two of the run's
// worker count).
func NewJoinBuild(key Col, payload []Col, rs operators.RightStrategy, partitions int) *Node {
	n := &Node{
		Kind: KindJoinBuild, Col: key.Name, Column: key.Handle, Stats: key.Stats,
		RightStrategy: rs, Partitions: partitions,
	}
	n.RightPayload, n.RightCols, n.RightStats = split(payload)
	return n
}

// NewJoinProbe builds the streaming probe node: pos is the outer-table
// position subtree (a DS1 scan of the outer key, or ALLPOS when the join
// carries no outer predicate), build the JoinBuild node it probes into.
// leftOut are the outer payload columns emitted per match.
func NewJoinProbe(key Col, leftOut []Col, pos, build *Node) *Node {
	n := &Node{
		Kind: KindJoinProbe, Col: key.Name, Column: key.Handle, Stats: key.Stats,
		Children: []*Node{pos, build},
	}
	n.OutCols, n.LeftCols, n.LeftStats = split(leftOut)
	return n
}

// PositionsDomain reports whether the node produces a position set.
func (n *Node) PositionsDomain() bool {
	switch n.Kind {
	case KindDS1, KindAND, KindFilterAt, KindPosAll:
		return true
	}
	return false
}

// Walk visits n and every descendant in depth-first order.
func Walk(n *Node, fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		Walk(c, fn)
	}
}

// label renders the node's operator description (without annotations).
func (n *Node) label() string {
	preds := func() string {
		if len(n.Preds) == 0 {
			return ""
		}
		parts := make([]string, len(n.Preds))
		for i, p := range n.Preds {
			parts[i] = n.Col + " " + p.String()
		}
		s := " (" + strings.Join(parts, " AND ") + ")"
		if n.Fused() {
			s += fmt.Sprintf(" [fused x%d]", len(n.Preds))
		}
		return s
	}
	switch n.Kind {
	case KindDS1:
		return "DS1 scan " + n.Col + preds()
	case KindDS2:
		return "DS2 scan " + n.Col + preds()
	case KindDS3:
		return "DS3 extract " + n.Col
	case KindDS4:
		if len(n.Preds) == 0 {
			return "DS4 widen " + n.Col
		}
		return "DS4 widen+filter " + n.Col + preds()
	case KindSPC:
		var fs []string
		for _, f := range n.SPCFilters {
			fs = append(fs, n.SPCNames[f.Col]+" "+f.Pred.String())
		}
		s := "SPC scan (" + strings.Join(n.SPCNames, ", ") + ")"
		if len(fs) > 0 {
			s += " where " + strings.Join(fs, " AND ")
		}
		return s
	case KindAND:
		return fmt.Sprintf("AND (%d position lists)", len(n.Children))
	case KindFilterAt:
		return "DS3+pred filter " + n.Col + preds()
	case KindPosAll:
		return "ALL positions"
	case KindMerge:
		return "MERGE out=(" + strings.Join(n.OutCols, ", ") + ")"
	case KindProject:
		return "PROJECT (" + strings.Join(n.OutCols, ", ") + ")"
	case KindAggregate:
		return fmt.Sprintf("AGG %v(%s) group by %s", n.Agg, n.AggCol, n.GroupBy)
	case KindJoinBuild:
		return fmt.Sprintf("JOINBUILD %s [radix, %s] payload=(%s)",
			n.Col, n.RightStrategy, strings.Join(n.RightPayload, ", "))
	case KindJoinProbe:
		return fmt.Sprintf("JOINPROBE %s = %s [batched gather]", n.Col, n.Children[1].Col)
	default:
		return n.Kind.String()
	}
}

// Spec carries the query shape and the chunk size a plan needs at run time,
// resolved once at build time.
type Spec struct {
	// OutNames is the result schema.
	OutNames []string
	// Output lists the projected columns of a selection (EM emission order).
	Output []string
	// GroupBy/AggCol/Agg describe the aggregation; Aggregating gates them.
	GroupBy, AggCol string
	Agg             operators.AggFunc
	Aggregating     bool
	// MatCols are the columns materialized at the top of LM plans.
	MatCols []string
	// Tuples is the projection's tuple count (the position-space extent).
	Tuples int64
	// ChunkSize is the horizontal-partition width in positions.
	ChunkSize int64
}

// Plan is an executable physical plan: a node tree plus its run-time spec.
type Plan struct {
	// Label names the strategy that built the plan (display only).
	Label string
	Root  *Node
	Spec  Spec

	// Builds, when set, routes the build-barrier phase through a shared
	// retained-build source (the service layer's keyed join-build cache), so
	// repeated joins over one inner table share a single partitioned hash
	// side across queries and sessions. The returned tables are read-only
	// after build, so sharing them between concurrent probes is safe.
	Builds BuildSource

	// observed records that the plan has run with observation enabled (so
	// Render shows observed counters).
	observed bool
}

// BuildSource provides shared retained join builds: GetOrBuild returns the
// table cached under key (hit=true) or builds, retains and returns a fresh
// one via build. Implementations must be safe for concurrent use; the
// canonical one is operators.BuildCache.
type BuildSource interface {
	GetOrBuild(key operators.BuildKey, build func() (*operators.PartitionedTable, error)) (*operators.PartitionedTable, bool, error)
}

// JoinProbe returns the plan's probe node, or nil when the plan is not a
// join tree (join plans are always PROJECT over JOINPROBE).
func (p *Plan) JoinProbe() *Node {
	if p.Root != nil && p.Root.Kind == KindProject &&
		len(p.Root.Children) == 1 && p.Root.Children[0].Kind == KindJoinProbe {
		return p.Root.Children[0]
	}
	return nil
}
