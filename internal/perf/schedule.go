package perf

import (
	"encoding/json"
	"fmt"
	"strconv"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Workload names. Each stresses a different set of layers; README.md says
// which and why.
const (
	PaperSelect = "paper_select"
	PaperJoin   = "paper_join"
	ServeHot    = "serve_hot"
	ServeCold   = "serve_cold"
	CoordMixed  = "coord_mixed"
)

// Workloads lists the workloads in report order.
var Workloads = []string{PaperSelect, PaperJoin, ServeHot, ServeCold, CoordMixed}

// Op is one generated request. Exactly one of Query and Join is set; both
// are the HTTP bodies of the serving layer, and the in-process workloads
// and the oracle convert them to matstore.Query / matstore.JoinQuery, so one
// description drives every surface.
type Op struct {
	// Class groups ops for the per-class layer metrics: the strategy on
	// paper_select, the inner-table strategy (or "spill") on paper_join, the
	// merge kind on coord_mixed.
	Class string `json:"class"`
	// Point names the sweep point (encoding/selectivity/shape) an op belongs
	// to on paper_select, where all four strategies must agree.
	Point string                `json:"point,omitempty"`
	Query *service.QueryRequest `json:"query,omitempty"`
	Join  *service.JoinRequest  `json:"join,omitempty"`
	// SpillQuarter runs the join in Grace spill mode under a quarter of its
	// estimated build memory (in-process only).
	SpillQuarter bool `json:"spill_quarter,omitempty"`
}

// key identifies an op's request, ignoring the fields that only label it.
func (o Op) key() string {
	o.Class, o.Point = "", ""
	raw, _ := json.Marshal(o) // plain structs of strings and ints cannot fail
	return string(raw)
}

// rng is splitmix64: the request stream must not depend on the Go release's
// math/rand.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// strata hands out distinct constants from [1, domain], stratified twice so
// that the work of a window depends on the seed as little as distinct
// constants allow. Across a pass: the domain is cut into n equal strata and
// every pass draws one constant from each, so every pass covers the
// selectivity range the same way. Along the passes: each stratum is cut into
// strataCells cells and every strataCells consecutive passes draw once from
// each cell, so the constants a window has used by any pass are spread evenly
// over the stratum whatever the seed. The seed decides the order of the cells
// and the constant taken within one.
type strata struct {
	width int       // constants per cell
	order [][][]int // per stratum and round, the order its cells are visited in
	perms [][][]int // per stratum and cell, a seeded order of the cell's offsets
}

const strataCells = 16

func newStrata(r *rng, domain int64, n int) strata {
	s := strata{width: int(domain) / n / strataCells, order: make([][][]int, n), perms: make([][][]int, n)}
	for st := range s.perms {
		for c := 0; c < strataCells; c++ {
			s.perms[st] = append(s.perms[st], r.perm(s.width))
		}
		for round := 0; round < s.width; round++ {
			s.order[st] = append(s.order[st], r.perm(strataCells))
		}
	}
	return s
}

// passes is how many passes the strata can serve before a constant repeats.
func (s strata) passes() int { return s.width * strataCells }

// draw returns slot's constant in the given pass. Slots rotate through the
// strata from pass to pass, so every request shape meets every selectivity.
func (s strata) draw(pass, slot int) int64 {
	st := (slot + pass) % len(s.perms)
	round := pass / strataCells
	cell := s.order[st][round][pass%strataCells]
	return int64((st*strataCells+cell)*s.width + s.perms[st][cell][round] + 1)
}

// Schedule generates a workload's request stream pass by pass from a seed.
// A pass is the unit the timed window repeats: every pass of a workload has
// the same mix of shapes and selectivities, so latency percentiles of whole
// passes are comparable between runs that complete different numbers of them.
type Schedule struct {
	workload string
	nCust    int64
	rng      rng
	pass     int
	// fixed is the pass of a fixed-shape workload, built once: every pass is
	// these ops in another order, so the stream holds no memory per pass and
	// the generator's footprint does not grow with the program's speed.
	fixed []Op
	ship  strata // serve_cold, coord_mixed: shipdate constants
	cust  strata // serve_cold, coord_mixed: custkey constants
}

// Per-pass constant counts of the two distinct-constant workloads.
const (
	coldShipSlots, coldCustSlots   = 10, 6
	coordShipSlots, coordCustSlots = 3, 3
)

// NewSchedule returns the request stream of a workload for a seed. nCust is
// the customer cardinality of the dataset, which scales the join constants.
func NewSchedule(workload string, seed int64, nCust int64) (*Schedule, error) {
	s := &Schedule{workload: workload, nCust: nCust, rng: rng{state: uint64(seed)}}
	switch workload {
	case PaperSelect:
		s.fixed = paperSelectPass()
	case PaperJoin:
		s.fixed = paperJoinPass(nCust)
	case ServeHot:
		s.fixed = serveHotPass(nCust)
	case ServeCold:
		s.ship = newStrata(&s.rng, tpch.ShipdateDays, coldShipSlots)
		s.cust = newStrata(&s.rng, nCust, coldCustSlots)
	case CoordMixed:
		s.ship = newStrata(&s.rng, tpch.ShipdateDays, coordShipSlots)
		s.cust = newStrata(&s.rng, nCust, coordCustSlots)
	default:
		return nil, fmt.Errorf("perf: unknown workload %q", workload)
	}
	return s, nil
}

// NextPass returns the next pass, shuffled, or nil once a distinct-constant
// workload has used every constant.
func (s *Schedule) NextPass() []*Op {
	ops := s.fixed
	if ops == nil {
		if s.pass >= s.ship.passes() || s.pass >= s.cust.passes() {
			return nil
		}
		if s.workload == ServeCold {
			ops = serveColdPass(s.pass, s.ship, s.cust)
		} else {
			ops = coordMixedPass(s.pass, s.ship, s.cust)
		}
	}
	s.pass++
	out := make([]*Op, len(ops))
	for i, j := range s.rng.perm(len(ops)) {
		out[i] = &ops[j]
	}
	return out
}

var strategyNames = []string{"em-pipelined", "em-parallel", "lm-pipelined", "lm-parallel"}

var rightStrategyNames = []string{"right-materialized", "right-multicolumn", "right-singlecolumn"}

// Sweep axes of paper_select (Figures 11 and 12).
var (
	selectEncodings     = []string{tpch.ColLinenum, tpch.ColLinenumRLE, tpch.ColLinenumBV}
	selectSelectivities = []float64{0.02, 0.2, 0.4, 0.6, 0.8, 0.98}
)

func where(col string, op string, v int64) string { return col + op + strconv.FormatInt(v, 10) }

func shipdateBelow(sel float64) string {
	return where(tpch.ColShipdate, "<", tpch.ShipdateForSelectivity(sel))
}

// selectPoint names a paper_select sweep point.
func selectPoint(enc string, sel float64, agg bool) string {
	shape := "sel"
	if agg {
		shape = "agg"
	}
	return fmt.Sprintf("%s/%g/%s", enc, sel, shape)
}

// paperSelectPass is Figures 11/12: the two-predicate selection over
// SHIPDATE and one LINENUM encoding, with and without an aggregation on top,
// under every strategy, serial as in the paper.
func paperSelectPass() []Op {
	var ops []Op
	for _, enc := range selectEncodings {
		for _, sel := range selectSelectivities {
			for _, agg := range []bool{false, true} {
				for _, strat := range strategyNames {
					q := &service.QueryRequest{
						Projection:  tpch.LineitemProj,
						Where:       []string{shipdateBelow(sel), where(enc, "<", tpch.LinenumMax)},
						Strategy:    strat,
						Parallelism: 1,
					}
					if agg {
						q.GroupBy, q.AggCol, q.Agg = tpch.ColRetflag, tpch.ColQuantity, "sum"
					} else {
						q.Output = []string{tpch.ColShipdate, enc}
					}
					ops = append(ops, Op{Class: strat, Point: selectPoint(enc, sel, agg), Query: q})
				}
			}
		}
	}
	return ops
}

func joinRequest(custBelow int64, rs string, par, limit int) *service.JoinRequest {
	return &service.JoinRequest{
		Left: tpch.OrdersProj, Right: tpch.CustomerProj,
		LeftKey: tpch.ColCustkey, RightKey: tpch.ColCustkey,
		Where:         []string{where(tpch.ColCustkey, "<", custBelow)},
		LeftOutput:    []string{tpch.ColOrderShipdate},
		RightOutput:   []string{tpch.ColNationcode},
		RightStrategy: rs,
		Parallelism:   par,
		Limit:         limit,
	}
}

// SpillClass is the Op.Class of paper_join's Grace-spill ops.
const SpillClass = "spill"

// paperJoinPass is Figure 13 — orders ⋈ customer under the three inner-table
// strategies at three outer selectivities — plus the same join spilling.
func paperJoinPass(nCust int64) []Op {
	var ops []Op
	for _, sel := range []float64{0.1, 0.5, 0.9} {
		k := tpch.CustkeyForSelectivity(sel, nCust)
		for _, rs := range rightStrategyNames {
			ops = append(ops, Op{Class: rs, Join: joinRequest(k, rs, 1, 0)})
		}
		ops = append(ops, Op{Class: SpillClass, SpillQuarter: true,
			Join: joinRequest(k, rightStrategyNames[0], 1, 0)})
	}
	return ops
}

func lineitemSelection(shipBelow int64, strat string, limit int) *service.QueryRequest {
	return &service.QueryRequest{
		Projection: tpch.LineitemProj,
		Output:     []string{tpch.ColShipdate, tpch.ColLinenum},
		Where: []string{where(tpch.ColShipdate, "<", shipBelow),
			where(tpch.ColLinenum, "<", tpch.LinenumMax)},
		Strategy: strat,
		Limit:    limit,
	}
}

func lineitemAgg(shipBelow int64, agg, strat string, limit int) *service.QueryRequest {
	return &service.QueryRequest{
		Projection: tpch.LineitemProj,
		Where:      []string{where(tpch.ColShipdate, "<", shipBelow)},
		GroupBy:    tpch.ColRetflag, AggCol: tpch.ColQuantity, Agg: agg,
		Strategy: strat,
		Limit:    limit,
	}
}

// serveHotPass is 24 fixed shapes of the mixed serving workload. The
// selectivities are low enough that every result stays resident in the
// service's default 32 MiB result cache together (≈ 10 MB at scale 0.1).
func serveHotPass(nCust int64) []Op {
	var ops []Op
	for _, sel := range []float64{0.01, 0.03, 0.1} {
		for _, strat := range strategyNames {
			ops = append(ops, Op{Class: "select",
				Query: lineitemSelection(tpch.ShipdateForSelectivity(sel), strat, 0)})
		}
	}
	ops = append(ops, Op{Class: "select",
		Query: lineitemSelection(tpch.ShipdateForSelectivity(0.05), "advise", 0)})
	for _, sel := range []float64{0.5, 0.9} {
		for _, strat := range []string{"em-pipelined", "lm-pipelined"} {
			ops = append(ops, Op{Class: "agg",
				Query: lineitemAgg(tpch.ShipdateForSelectivity(sel), "sum", strat, 0)})
		}
	}
	for _, sel := range []float64{0.1, 0.5} {
		for _, rs := range rightStrategyNames {
			ops = append(ops, Op{Class: "join",
				Join: joinRequest(tpch.CustkeyForSelectivity(sel, nCust), rs, 0, 0)})
		}
	}
	ops = append(ops, Op{Class: "join",
		Join: joinRequest(tpch.CustkeyForSelectivity(0.3, nCust), "advise", 0, 0)})
	return ops
}

// serveColdPass has the shape families of serve_hot, but every request
// carries a constant no other request of the schedule has, and every other
// request leaves the strategy to the advisor.
func serveColdPass(pass int, ship, cust strata) []Op {
	var ops []Op
	slot := 0
	for _, strat := range strategyNames {
		for _, s := range []string{strat, "advise"} {
			ops = append(ops, Op{Class: "select", Query: lineitemSelection(ship.draw(pass, slot), s, 0)})
			slot++
		}
	}
	for _, s := range []string{"lm-pipelined", "advise"} {
		ops = append(ops, Op{Class: "agg", Query: lineitemAgg(ship.draw(pass, slot), "sum", s, 0)})
		slot++
	}
	slot = 0
	for _, rs := range rightStrategyNames {
		for _, s := range []string{rs, "advise"} {
			ops = append(ops, Op{Class: "join", Join: joinRequest(cust.draw(pass, slot), s, 0, 0)})
			slot++
		}
	}
	return ops
}

// Merge kinds of the coordinator, the Op.Class values of coord_mixed.
const (
	MergeConcat    = "concat"
	MergeAggStats  = "agg_statistics"
	MergeRowID     = "rowid_kway"
	MergeFinalized = "finalized_agg"
	CoordJoin      = "copartitioned_join"
)

const coordLimit = 1000

// coordMixedPass sends one request down each of the coordinator's merge
// paths, with distinct constants as in serve_cold.
func coordMixedPass(pass int, ship, cust strata) []Op {
	strat := strategyNames[pass%len(strategyNames)]
	ordersWhere := func(slot int) []string {
		return []string{where(tpch.ColCustkey, "<", cust.draw(pass, slot))}
	}
	join := joinRequest(cust.draw(pass, 2), rightStrategyNames[pass%len(rightStrategyNames)], 0, coordLimit)
	return []Op{
		{Class: MergeConcat, Query: lineitemSelection(ship.draw(pass, 0), strat, coordLimit)},
		{Class: MergeConcat, Query: lineitemSelection(ship.draw(pass, 1), "advise", coordLimit)},
		{Class: MergeAggStats, Query: lineitemAgg(ship.draw(pass, 2), "avg", strat, coordLimit)},
		{Class: MergeRowID, Query: &service.QueryRequest{
			Projection: tpch.OrdersProj,
			Output:     []string{tpch.ColCustkey, tpch.ColOrderShipdate},
			Where:      ordersWhere(0), Strategy: strat, Limit: coordLimit}},
		{Class: MergeFinalized, Query: &service.QueryRequest{
			Projection: tpch.OrdersProj,
			Where:      ordersWhere(1),
			GroupBy:    tpch.ColCustkey, AggCol: tpch.ColOrderShipdate, Agg: "sum",
			Strategy: strat, Limit: coordLimit}},
		{Class: CoordJoin, Join: join},
	}
}

// selectQuery converts a /query body to the library's query and strategy.
// advise reports that the strategy is left to the cost model.
func selectQuery(r *service.QueryRequest) (q matstore.Query, strat matstore.Strategy, advise bool, err error) {
	q = matstore.Query{Output: r.Output, GroupBy: r.GroupBy, AggCol: r.AggCol, Parallelism: r.Parallelism}
	for _, w := range r.Where {
		f, err := matstore.ParsePredicateExpr(w)
		if err != nil {
			return q, 0, false, err
		}
		q.Filters = append(q.Filters, f)
	}
	if r.Agg != "" {
		if q.Agg, err = matstore.ParseAggFunc(r.Agg); err != nil {
			return q, 0, false, err
		}
	}
	if r.Strategy == "advise" {
		return q, 0, true, nil
	}
	strat, err = matstore.ParseStrategy(r.Strategy)
	return q, strat, false, err
}

// joinQuery converts a /join body to the library's join query and inner-table
// strategy ("advise" resolves to right-materialized: results do not depend
// on the strategy, and only the oracle converts advised joins).
func joinQuery(r *service.JoinRequest) (matstore.JoinQuery, matstore.RightStrategy, error) {
	q := matstore.JoinQuery{
		LeftKey: r.LeftKey, LeftPred: matstore.MatchAll, LeftOutput: r.LeftOutput,
		RightKey: r.RightKey, RightOutput: r.RightOutput, Parallelism: r.Parallelism,
	}
	for _, w := range r.Where {
		f, err := matstore.ParsePredicateExpr(w)
		if err != nil {
			return q, 0, err
		}
		q.LeftPred = f.Pred
	}
	if r.RightStrategy == "advise" {
		return q, matstore.RightMaterialized, nil
	}
	rs, err := matstore.ParseRightStrategy(r.RightStrategy)
	return q, rs, err
}
