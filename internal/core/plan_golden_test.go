package core

import (
	"testing"

	"matstore/internal/pred"
	"matstore/internal/tpch"
)

// Golden plan-builder shapes: the exact node tree each strategy assembles
// for representative queries, pinned as literal strings so any planner edit
// shows up as a reviewable golden diff. Covered shapes: a 1-filter
// selection, a 3-filter selection whose consecutive same-column predicates
// fuse, an aggregation, and the no-filter multi-output scan that the join's
// right (inner) side materializes.
func TestPlanShapesGolden(t *testing.T) {
	db := openDB(t)
	p, err := db.Projection(tpch.LineitemProj)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(db.Pool(), Options{ChunkSize: 1024})

	oneFilter := SelectQuery{
		Output:  []string{tpch.ColShipdate, tpch.ColLinenum},
		Filters: []Filter{{Col: tpch.ColShipdate, Pred: pred.LessThan(400)}},
	}
	threeFilter := SelectQuery{
		Output: []string{tpch.ColShipdate, tpch.ColQuantity},
		Filters: []Filter{
			{Col: tpch.ColShipdate, Pred: pred.AtLeast(100)},
			{Col: tpch.ColShipdate, Pred: pred.LessThan(400)},
			{Col: tpch.ColLinenum, Pred: pred.LessThan(5)},
		},
	}
	aggregation := SelectQuery{
		Filters: []Filter{{Col: tpch.ColShipdate, Pred: pred.LessThan(400)}},
		GroupBy: tpch.ColRetflag,
		AggCol:  tpch.ColQuantity,
	}
	joinRightSide := SelectQuery{Output: []string{tpch.ColShipdate, tpch.ColQuantity}}

	cases := []struct {
		name string
		q    SelectQuery
		s    Strategy
		want string
	}{
		{"one-filter", oneFilter, EMPipelined, `EM-pipelined plan
PROJECT (shipdate, linenum)
└─ DS4 widen linenum
   └─ DS2 scan shipdate (shipdate < 400)
`},
		{"one-filter", oneFilter, EMParallel, `EM-parallel plan
PROJECT (shipdate, linenum)
└─ SPC scan (shipdate, linenum) where shipdate < 400
`},
		{"one-filter", oneFilter, LMPipelined, `LM-pipelined plan
MERGE out=(shipdate, linenum)
├─ DS1 scan shipdate (shipdate < 400)
├─ DS3 extract shipdate
└─ DS3 extract linenum
`},
		{"one-filter", oneFilter, LMParallel, `LM-parallel plan
MERGE out=(shipdate, linenum)
├─ DS1 scan shipdate (shipdate < 400)
├─ DS3 extract shipdate
└─ DS3 extract linenum
`},

		{"three-filter-fused", threeFilter, EMPipelined, `EM-pipelined plan
PROJECT (shipdate, quantity)
└─ DS4 widen quantity
   └─ DS4 widen+filter linenum (linenum < 5)
      └─ DS2 scan shipdate (shipdate >= 100 AND shipdate < 400) [fused x2]
`},
		{"three-filter-fused", threeFilter, EMParallel, `EM-parallel plan
PROJECT (shipdate, quantity)
└─ SPC scan (shipdate, linenum, quantity) where shipdate >= 100 AND shipdate < 400 AND linenum < 5
`},
		{"three-filter-fused", threeFilter, LMPipelined, `LM-pipelined plan
MERGE out=(shipdate, quantity)
├─ DS3+pred filter linenum (linenum < 5)
│  └─ DS1 scan shipdate (shipdate >= 100 AND shipdate < 400) [fused x2]
├─ DS3 extract shipdate
└─ DS3 extract quantity
`},
		{"three-filter-fused", threeFilter, LMParallel, `LM-parallel plan
MERGE out=(shipdate, quantity)
├─ AND (2 position lists)
│  ├─ DS1 scan shipdate (shipdate >= 100 AND shipdate < 400) [fused x2]
│  └─ DS1 scan linenum (linenum < 5)
├─ DS3 extract shipdate
└─ DS3 extract quantity
`},
		{"aggregation", aggregation, EMPipelined, `EM-pipelined plan
AGG sum(quantity) group by returnflag
└─ DS4 widen quantity
   └─ DS4 widen returnflag
      └─ DS2 scan shipdate (shipdate < 400)
`},
		{"aggregation", aggregation, EMParallel, `EM-parallel plan
AGG sum(quantity) group by returnflag
└─ SPC scan (shipdate, returnflag, quantity) where shipdate < 400
`},
		{"aggregation", aggregation, LMPipelined, `LM-pipelined plan
AGG sum(quantity) group by returnflag
└─ DS1 scan shipdate (shipdate < 400)
`},
		{"aggregation", aggregation, LMParallel, `LM-parallel plan
AGG sum(quantity) group by returnflag
└─ DS1 scan shipdate (shipdate < 400)
`},

		{"join-right-side", joinRightSide, EMPipelined, `EM-pipelined plan
PROJECT (shipdate, quantity)
└─ DS4 widen quantity
   └─ DS2 scan shipdate
`},
		{"join-right-side", joinRightSide, EMParallel, `EM-parallel plan
PROJECT (shipdate, quantity)
└─ SPC scan (shipdate, quantity)
`},
		{"join-right-side", joinRightSide, LMPipelined, `LM-pipelined plan
MERGE out=(shipdate, quantity)
├─ ALL positions
├─ DS3 extract shipdate
└─ DS3 extract quantity
`},
		{"join-right-side", joinRightSide, LMParallel, `LM-parallel plan
MERGE out=(shipdate, quantity)
├─ ALL positions
├─ DS3 extract shipdate
└─ DS3 extract quantity
`},
	}
	for _, tc := range cases {
		pl, err := e.BuildPlan(p, tc.q, tc.s)
		if err != nil {
			t.Fatalf("%s/%v: %v", tc.name, tc.s, err)
		}
		if got := pl.Shape(); got != tc.want {
			t.Errorf("%s/%v plan shape changed:\n--- got ---\n%s--- want ---\n%s", tc.name, tc.s, got, tc.want)
		}
	}
}

// TestFuseFilters pins the grouping rule: consecutive same-column filters
// merge, non-consecutive repeats and distinct columns do not.
func TestFuseFilters(t *testing.T) {
	fs := []Filter{
		{Col: "a", Pred: pred.AtLeast(1)},
		{Col: "a", Pred: pred.LessThan(9)},
		{Col: "b", Pred: pred.Equals(3)},
		{Col: "a", Pred: pred.NotEquals(5)},
	}
	got := fuseFilters(fs)
	if len(got) != 3 || len(got[0].preds) != 2 || got[0].col != "a" || got[1].col != "b" || got[2].col != "a" {
		t.Errorf("fuseFilters = %+v", got)
	}
	if fuseFilters(nil) != nil {
		t.Error("no filters should give no groups")
	}
}
