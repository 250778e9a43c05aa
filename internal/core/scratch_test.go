package core

import (
	"fmt"
	"sync"
	"testing"

	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/pred"
	"matstore/internal/rows"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// TestCappedScratchNeverLeaks runs capped requests on concurrent goroutines:
// every selection strategy and the two inner strategies that seal per chunk,
// at one worker and four, capped at 1, 257 and one row short of the whole.
// Each goroutine alternates a wide request (every row of a chunk survives)
// with a narrow one (a few rows of each). A chunk past a morsel's cap is
// written into scratch that every capped run in the process shares, so a
// scratch array that carried a wide chunk's rows or length into a narrow one,
// or that two runs wrote at once, would show in a reply: each must be
// oracle.Capped's.
func TestCappedScratchNeverLeaks(t *testing.T) {
	const goroutines = 4
	db := openDB(t)
	e := NewExecutor(db.Pool(), Options{ChunkSize: 512})
	proj := func(name string) *storage.Projection {
		p, err := db.Projection(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	col := func(p *storage.Projection, name string) *storage.Column {
		c, err := p.Column(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	li, orders, customer := proj(tpch.LineitemProj), proj(tpch.OrdersProj), proj(tpch.CustomerProj)

	type request struct {
		name string
		run  func(par, limit int) (*rows.Result, error)
		ref  [][]int64
	}
	var pairs [][2]request // wide, then narrow
	selects := [2]SelectQuery{
		lineitemQuery(tpch.ColLinenumRLE, tpch.ShipdateDays, tpch.LinenumMax+1),
		lineitemQuery(tpch.ColLinenum, tpch.ShipdateForSelectivity(0.1), 3),
	}
	for _, s := range Strategies {
		var pair [2]request
		for i, q := range selects {
			pair[i] = request{fmt.Sprintf("%v/%d", s, i), func(par, limit int) (*rows.Result, error) {
				q := q // each call its own copy: the goroutines share the request
				q.Parallelism, q.Limit = par, limit
				res, _, err := e.Select(li, q, s)
				return res, err
			}, oracle.Columns(naiveSelect(t, li, q))}
		}
		pairs = append(pairs, pair)
	}
	joins := [2]JoinQuery{joinTestQuery(false), joinTestQuery(false)}
	joins[1].LeftPred = pred.LessThan(40)
	for _, rs := range []operators.RightStrategy{operators.RightMaterialized, operators.RightMultiColumn} {
		var pair [2]request
		for i, q := range joins {
			ref, _, err := oracle.NestedLoopJoin(col(orders, q.LeftKey), q.LeftPred,
				[]*storage.Column{col(orders, q.LeftOutput[0])}, col(customer, q.RightKey),
				[]*storage.Column{col(customer, q.RightOutput[0])})
			if err != nil {
				t.Fatal(err)
			}
			pair[i] = request{fmt.Sprintf("%v/%d", rs, i), func(par, limit int) (*rows.Result, error) {
				q := q // each call its own copy: the goroutines share the request
				q.Parallelism, q.Limit = par, limit
				res, _, err := e.Join(orders, customer, q, rs)
				return res, err
			}, ref}
		}
		pairs = append(pairs, pair)
	}
	for _, pair := range pairs {
		if wide, narrow := len(pair[0].ref[0]), len(pair[1].ref[0]); narrow <= 258 || wide < 4*narrow {
			t.Fatalf("%s: %d wide rows and %d narrow ones cannot show a leak", pair[0].name, wide, narrow)
		}
	}

	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pairs {
				pair := pairs[(i+g)%len(pairs)]
				for _, par := range []int{1, 4} {
					for _, limit := range []func(rows int) int{
						func(int) int { return 1 },
						func(int) int { return 257 },
						func(rows int) int { return rows - 1 },
					} {
						for _, rq := range pair {
							limit := limit(len(rq.ref[0]))
							res, err := rq.run(par, limit)
							if err != nil {
								t.Error(err)
								return
							}
							if err := oracle.Capped(res, rq.ref, limit); err != nil {
								t.Errorf("%s/w=%d/limit=%d: %v", rq.name, par, limit, err)
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
