package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/operators"
	"matstore/internal/oracle"
	"matstore/internal/plan"
	"matstore/internal/pred"
	"matstore/internal/storage"
)

// densityFixture is one inner key column of the density sweep: its keys, in
// stored order, their encoding, and the table form its domain implies.
type densityFixture struct {
	name  string
	keys  []int64
	enc   encoding.Kind
	dense bool
}

// densityFixtures sweeps the inner key domain across the dense/hashed
// threshold (operators.DenseKeys): unique and duplicated dense keys, a
// negative minimum, a domain exactly at the threshold and one value past it,
// a sparse domain, dense domains at either end of int64, and a domain
// spanning all of int64, whose width overflows.
func densityFixtures(n int) []densityFixture {
	rng := rand.New(rand.NewSource(40))
	seq := func(start, step int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = start + int64(i)*step
		}
		return ks
	}
	shuffled := func(ks []int64) []int64 {
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		return ks
	}
	spread := func(width int64) []int64 { // n keys from 0 to width-1, both ends included
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = int64(i) * (width - 1) / int64(n-1)
		}
		return shuffled(ks)
	}
	dups := make([]int64, n)
	for i := range dups {
		dups[i] = rng.Int63n(int64(n) / 4)
	}
	slices.Sort(dups)
	full := shuffled(seq(-int64(n)/2, 1))
	full[0], full[1] = math.MinInt64, math.MaxInt64
	edge := int64(4 * operators.NextPow2(2*n)) // domain values at the threshold
	return []densityFixture{
		{"dense unique", shuffled(seq(0, 1)), encoding.Plain, true},
		{"dense duplicates", dups, encoding.RLE, true},
		{"negative min", shuffled(seq(-int64(n)/2, 1)), encoding.Plain, true},
		{"at the threshold", spread(edge), encoding.Plain, true},
		{"past the threshold", spread(edge + 1), encoding.Plain, false},
		{"sparse", shuffled(seq(-7_000_000_000, 1_000_003)), encoding.Plain, false},
		{"int64 min end", shuffled(seq(math.MinInt64, 1)), encoding.Plain, true},
		{"int64 max end", shuffled(seq(math.MaxInt64-int64(n)+1, 1)), encoding.Plain, true},
		{"int64 extremes", full, encoding.Plain, false},
	}
}

// densityDB writes an outer ⋈ inner pair over one fixture's inner keys: the
// inner side is (key, payload), the outer (key, value) with seven keys in ten
// drawn from the inner column and the rest outside its domain — just below
// its minimum, just above its maximum (both wrapping round int64 at its
// ends) or anywhere.
func densityDB(t *testing.T, fx densityFixture) (outer, inner *storage.Projection, e *Executor) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(fx.name))))
	lo, hi := slices.Min(fx.keys), slices.Max(fx.keys)
	outerKeys := make([]int64, 3*len(fx.keys))
	for i := range outerKeys {
		switch r := rng.Intn(10); {
		case r < 7:
			outerKeys[i] = fx.keys[rng.Intn(len(fx.keys))]
		case r == 7:
			outerKeys[i] = lo - 1 - rng.Int63n(100)
		case r == 8:
			outerKeys[i] = hi + 1 + rng.Int63n(100)
		default:
			outerKeys[i] = rng.Int63() - rng.Int63()
		}
	}
	dir := t.TempDir()
	write := func(name string, keys []int64, enc encoding.Kind) {
		specs := []storage.ColumnSpec{{Name: "k", Encoding: enc}, {Name: "v", Encoding: encoding.Plain}}
		if _, err := storage.WriteProjectionParallel(filepath.Join(dir, name), name, nil, specs, 1,
			func(col int, w *storage.ColumnWriter) error {
				for i, k := range keys {
					v := k
					if col == 1 {
						v = int64(1000 + i)
					}
					if err := w.Append(v); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
			t.Fatal(err)
		}
	}
	write("inner", fx.keys, fx.enc)
	write("outer", outerKeys, encoding.Plain)
	db, err := storage.OpenDB(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if outer, err = db.Projection("outer"); err != nil {
		t.Fatal(err)
	}
	if inner, err = db.Projection("inner"); err != nil {
		t.Fatal(err)
	}
	return outer, inner, NewExecutor(db.Pool(), Options{ChunkSize: 64})
}

// TestJoinDensitySweepAgainstOracle runs both table forms end to end: for
// every fixture of the density sweep, under every strategy, at one and four
// workers, at the derived and at eight partitions, in memory, at half the
// build's bytes and at one byte, the join over stored columns must equal the
// nested-loop oracle byte for byte, outer keys outside the inner domain
// included. Each fixture's header bounds must imply the form it was written
// to exercise (the operators' own tests check the build takes that form).
func TestJoinDensitySweepAgainstOracle(t *testing.T) {
	const n = 600
	for _, fx := range densityFixtures(n) {
		outer, inner, e := densityDB(t, fx)
		col := func(p *storage.Projection, name string) *storage.Column {
			c, err := p.Column(name)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		if lo, hi := col(inner, "k").MinMax(); operators.DenseKeys(lo, hi, n) != fx.dense {
			t.Fatalf("%s: header bounds [%d, %d] over %d keys do not imply dense=%v", fx.name, lo, hi, n, fx.dense)
		}
		q := JoinQuery{LeftKey: "k", LeftPred: pred.MatchAll, LeftOutput: []string{"v"}, RightKey: "k", RightOutput: []string{"v"}}
		ref, _, err := oracle.NestedLoopJoin(col(outer, "k"), q.LeftPred, []*storage.Column{col(outer, "v")},
			col(inner, "k"), []*storage.Column{col(inner, "v")})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref[0]) == 0 {
			t.Fatalf("%s: the oracle joined no rows", fx.name)
		}
		for _, parts := range []int{0, 8} {
			e.Opt.JoinPartitions = parts
			for _, rs := range []operators.RightStrategy{
				operators.RightMaterialized, operators.RightMultiColumn, operators.RightSingleColumn,
			} {
				pl, err := e.BuildJoinPlan(outer, inner, q, rs)
				if err != nil {
					t.Fatal(err)
				}
				build := pl.JoinProbe().Children[1]
				est, err := operators.BuildPartitioned(build.Column, build.RightCols, build.RightPayload, rs, 64, 1, parts)
				if err != nil {
					t.Fatalf("%s/%v: %v", fx.name, rs, err)
				}
				for _, budget := range []int64{0, est.SizeBytes / 2, 1} {
					for _, workers := range []int{1, 4} {
						at := fmt.Sprintf("%s/parts=%d/%v/budget=%d/w=%d", fx.name, parts, rs, budget, workers)
						opts := plan.RunOptions{}
						if budget > 0 {
							opts.Spill = &operators.SpillConfig{BudgetBytes: budget, EstBytes: est.SizeBytes}
						}
						got, _, err := e.RunJoinPlanWith(pl, workers, opts)
						if err != nil {
							t.Fatalf("%s: %v", at, err)
						}
						if !reflect.DeepEqual(oracle.Columns(got), ref) {
							t.Errorf("%s: %d rows differ from the oracle's %d", at, got.NumRows(), len(ref[0]))
						}
					}
				}
			}
		}
	}
}
