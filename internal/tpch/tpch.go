// Package tpch generates the TPC-H-shaped data the paper's experiments run
// over (Section 4), using a deterministic stdlib-only PRNG in place of
// dbgen. Generation is morsel-parallel over the internal/exec pool: the row
// space is carved into fixed shards, each shard draws from its own
// seed-derived PRNG stream, shard buffers concatenate in a fixed order, and
// every column file is encoded and written by an independent task
// (storage.WriteProjectionParallel) — so the output files are byte-identical
// at every worker count. It reproduces the properties the experiments
// exploit:
//
//   - A lineitem projection (RETURNFLAG, SHIPDATE, LINENUM, QUANTITY) sorted
//     by (RETURNFLAG, SHIPDATE, LINENUM). RETURNFLAG has 3 distinct values,
//     SHIPDATE ~2,526 distinct days uniformly spread (so a shipdate < X
//     predicate's selectivity is linear in X), LINENUM has 7 distinct values
//     with TPC-H's triangular frequency (LINENUM < 7 selects ≈96% — the
//     constant the paper holds fixed), QUANTITY is 1..50 uniform.
//     RETURNFLAG and SHIPDATE are RLE-compressed; LINENUM is stored
//     redundantly in uncompressed, RLE and bit-vector encodings (as in the
//     paper); QUANTITY is uncompressed.
//   - An orders projection (CUSTKEY, SHIPDATE) and a customer projection
//     (CUSTKEY, NATIONCODE) with a 10:1 cardinality ratio and uniform
//     foreign keys, for the Section 4.3 join experiment.
//
// Scale 1 corresponds to TPC-H scale 1 (6M lineitem rows); the paper used
// scale 10. All row counts scale linearly.
package tpch

import (
	"fmt"
	"path/filepath"

	"matstore/internal/encoding"
	"matstore/internal/exec"
	"matstore/internal/positions"
	"matstore/internal/storage"
)

// GenVersion identifies the generator's output bytes: bump it whenever the
// generated data changes for a given (scale, seed), so cached datasets
// (internal/bench's marker files) regenerate. Version 2 introduced
// seed-per-shard parallel generation.
const GenVersion = 2

const (
	// ShipdateDays is the number of distinct SHIPDATE values (the TPC-H
	// shipdate domain spans ~2,526 days).
	ShipdateDays = 2526
	// LinenumMax is the largest LINENUM value (1..7).
	LinenumMax = 7
	// QuantityMax is the largest QUANTITY value (1..50).
	QuantityMax = 50
	// Nations is the number of distinct NATIONCODE values.
	Nations = 25

	// LineitemPerScale is lineitem rows at scale 1.
	LineitemPerScale = 6_000_000
	// OrdersPerScale is orders rows at scale 1.
	OrdersPerScale = 1_500_000
	// CustomerPerScale is customer rows at scale 1.
	CustomerPerScale = 150_000

	// LineitemProj, OrdersProj and CustomerProj name the generated
	// projections.
	LineitemProj = "lineitem"
	OrdersProj   = "orders"
	CustomerProj = "customer"
)

// Column names of the generated projections.
const (
	ColRetflag       = "returnflag"
	ColShipdate      = "shipdate"
	ColLinenum       = "linenum"     // uncompressed
	ColLinenumRLE    = "linenum_rle" // RLE copy
	ColLinenumBV     = "linenum_bv"  // bit-vector copy
	ColQuantity      = "quantity"
	ColCustkey       = "custkey"
	ColOrderShipdate = "shipdate"
	ColNationcode    = "nationcode"
)

// Config parameterizes generation.
type Config struct {
	// Scale is the TPC-H scale factor (1.0 = 6M lineitem rows).
	Scale float64
	// Seed makes generation deterministic; different seeds give different
	// data with identical statistics.
	Seed uint64
	// Workers parallelizes shard generation and column-file writing over the
	// internal/exec pool (0 = one per CPU, 1 = serial). Output files are
	// byte-identical at every worker count.
	Workers int
}

// LineitemRows returns the lineitem cardinality at this scale.
func (c Config) LineitemRows() int64 { return int64(float64(LineitemPerScale) * c.Scale) }

// OrdersRows returns the orders cardinality at this scale.
func (c Config) OrdersRows() int64 { return int64(float64(OrdersPerScale) * c.Scale) }

// CustomerRows returns the customer cardinality at this scale.
func (c Config) CustomerRows() int64 { return int64(float64(CustomerPerScale) * c.Scale) }

// rng is a splitmix64 PRNG: tiny, fast, deterministic, stdlib-only.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed + 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 {
	return int64(r.next() % uint64(n))
}

// shardSalt derives a shard's private PRNG stream from the generator seed
// and the shard's fixed identity (never its index in a worker-dependent
// carving), so any carving of the row space replays identical bytes.
func shardSalt(seed, table, a, b uint64) uint64 {
	r := newRNG(seed ^ table ^ a*0x9e3779b97f4a7c15 ^ b*0xc4ceb9fe1a85ec53)
	return r.next()
}

// Generate writes all three projections under dir.
func Generate(dir string, cfg Config) error {
	if cfg.Scale <= 0 {
		return fmt.Errorf("tpch: scale must be positive, got %v", cfg.Scale)
	}
	if err := GenerateLineitem(filepath.Join(dir, LineitemProj), cfg); err != nil {
		return err
	}
	if err := GenerateOrders(filepath.Join(dir, OrdersProj), cfg); err != nil {
		return err
	}
	return GenerateCustomer(filepath.Join(dir, CustomerProj), cfg)
}

// colRuns buffers one shard column as (value, count) runs — O(1) per run to
// replay into a ColumnWriter, and compact for the run-heavy sorted columns.
// Run fragmentation at shard boundaries cannot leak into the output bytes:
// ColumnWriter.AppendRun coalesces adjacent equal values itself.
type colRuns struct {
	vals, lens []int64
}

func (c *colRuns) add(v, n int64) {
	if n <= 0 {
		return
	}
	c.vals = append(c.vals, v)
	c.lens = append(c.lens, n)
}

// replayClip appends only rows [lo, hi) of the run sequence (row indices
// local to this buffer) — the horizontal-slicing primitive of sharded
// generation. Clipping run boundaries cannot perturb the output bytes:
// AppendRun coalesces adjacent equal values, so a clipped replay is
// indistinguishable from appending the sliced values one by one.
func (c *colRuns) replayClip(w *storage.ColumnWriter, lo, hi int64) error {
	cur := int64(0)
	for i, v := range c.vals {
		n := c.lens[i]
		start, end := cur, cur+n
		cur = end
		if end <= lo {
			continue
		}
		if start >= hi {
			break
		}
		if start < lo {
			start = lo
		}
		if end > hi {
			end = hi
		}
		if err := w.AppendRun(v, end-start); err != nil {
			return err
		}
	}
	return nil
}

// linenumWeights is the TPC-H LINENUM frequency: an order has 1..7 line
// items uniformly, so P(linenum = k) ∝ 8-k. LINENUM < 7 therefore selects
// 27/28 ≈ 96.4% of rows — the paper's fixed 96% predicate.
var linenumWeights = [LinenumMax]int64{7, 6, 5, 4, 3, 2, 1}

// LinenumWeightSum is the total LINENUM frequency weight: P(linenum = k) =
// (8-k)/LinenumWeightSum, so linenum < 7 selects 27/28 of all rows.
const LinenumWeightSum = 28

// lineitemShardDays is the shipdate span of one lineitem generation shard:
// 2526 days split into ~16 shards per RETURNFLAG group, enough morsels for
// any worker count without fragmenting the buffers.
const lineitemShardDays = 158

// liShard is one lineitem generation unit — a (returnflag, day range) slab
// of the sorted row space — with its buffered column runs. quantity is
// buffered raw (one random draw per row).
type liShard struct {
	flag       int64
	day0, day1 int64
	flagRuns   colRuns
	dateRuns   colRuns
	lnRuns     colRuns // shared by the plain, RLE and bit-vector copies
	qty        []int64
}

// GenerateLineitem writes the lineitem projection: rows sorted by
// (RETURNFLAG, SHIPDATE, LINENUM), generated cell-by-cell so sorted columns
// are emitted as runs without a sort pass. Shards generate in parallel from
// seed-per-shard PRNG streams and each column file is written by its own
// task, so the files are byte-identical at every cfg.Workers.
func GenerateLineitem(dir string, cfg Config) error {
	shards, err := genLineitemShards(cfg)
	if err != nil {
		return err
	}
	n := cfg.LineitemRows()
	return writeLineitem(dir, shards, exec.Resolve(cfg.Workers), positions.Range{Start: 0, End: n})
}

// genLineitemShards generates the lineitem row space as (flag, day-range)
// slabs, in parallel from seed-per-shard PRNG streams. Slab order defines
// the global row order.
func genLineitemShards(cfg Config) ([]*liShard, error) {
	n := cfg.LineitemRows()
	// RETURNFLAG shares: A≈25%, N≈50%, R≈25% (encoded 0,1,2).
	flagRows := [3]int64{n / 4, n / 2, n - n/4 - n/2}
	var shards []*liShard
	for flag := int64(0); flag < 3; flag++ {
		for day0 := int64(0); day0 < ShipdateDays; day0 += lineitemShardDays {
			day1 := day0 + lineitemShardDays
			if day1 > ShipdateDays {
				day1 = ShipdateDays
			}
			shards = append(shards, &liShard{flag: flag, day0: day0, day1: day1})
		}
	}
	workers := exec.Resolve(cfg.Workers)
	if err := exec.Run(workers, len(shards), func(i int) error {
		shards[i].generate(cfg, flagRows[shards[i].flag])
		return nil
	}); err != nil {
		return nil, err
	}
	return shards, nil
}

// rows returns the slab's row count.
func (s *liShard) rows() int64 {
	var n int64
	for _, l := range s.flagRuns.lens {
		n += l
	}
	return n
}

// writeLineitem writes the global row range clip of the generated slabs as
// a lineitem projection directory. The full range reproduces the
// single-directory output; a sub-range is byte-identical to row-slicing it
// (the ColumnWriter re-encodes from the slice's first row, exactly as a
// slicing rewrite would).
func writeLineitem(dir string, shards []*liShard, workers int, clip positions.Range) error {
	_, err := storage.WriteProjectionParallel(dir, LineitemProj,
		[]string{ColRetflag, ColShipdate, ColLinenum},
		[]storage.ColumnSpec{
			{Name: ColRetflag, Encoding: encoding.RLE},
			{Name: ColShipdate, Encoding: encoding.RLE},
			{Name: ColLinenum, Encoding: encoding.Plain},
			{Name: ColLinenumRLE, Encoding: encoding.RLE},
			{Name: ColLinenumBV, Encoding: encoding.BitVector},
			{Name: ColQuantity, Encoding: encoding.Plain},
		},
		workers,
		func(col int, w *storage.ColumnWriter) error {
			cursor := int64(0) // global row of the next slab's first row
			for _, s := range shards {
				rows := s.rows()
				slab := positions.Range{Start: cursor, End: cursor + rows}
				cursor += rows
				o := slab.Intersect(clip)
				if o.Empty() {
					continue
				}
				// Slab-local sub-range to emit.
				lo, hi := o.Start-slab.Start, o.End-slab.Start
				var err error
				switch col {
				case 0:
					err = s.flagRuns.replayClip(w, lo, hi)
				case 1:
					err = s.dateRuns.replayClip(w, lo, hi)
				case 2, 3, 4:
					err = s.lnRuns.replayClip(w, lo, hi)
				default:
					for _, q := range s.qty[lo:hi] {
						if err = w.Append(q); err != nil {
							break
						}
					}
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
	return err
}

// generate fills the shard's buffers: rows spread uniformly over the shard's
// days (deterministic proportional allocation against the whole flag group)
// and, within each day, over LINENUM with the triangular weights.
func (s *liShard) generate(cfg Config, flagRows int64) {
	if flagRows <= 0 {
		return
	}
	r := newRNG(cfg.Seed ^ 0x11ea ^ shardSalt(cfg.Seed, 'L', uint64(s.flag), uint64(s.day0)))
	// The flag group's rows allocate to days independently of sharding: day
	// counts depend only on (flagRows, day), so any shard can compute its
	// slice of the allocation locally.
	base := flagRows / ShipdateDays
	rem := flagRows % ShipdateDays
	for day := s.day0; day < s.day1; day++ {
		cnt := base
		if day < rem {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		s.emitDay(r, day, cnt)
	}
}

// emitDay allocates cnt rows across LINENUM values 1..7 by triangular
// weights (rounding remainder distributed by weighted random draws) and
// buffers the runs.
func (s *liShard) emitDay(r *rng, day, cnt int64) {
	var counts [LinenumMax]int64
	var assigned int64
	for l := 0; l < LinenumMax; l++ {
		counts[l] = cnt * linenumWeights[l] / LinenumWeightSum
		assigned += counts[l]
	}
	for assigned < cnt {
		w := r.intn(LinenumWeightSum)
		for l := 0; l < LinenumMax; l++ {
			if w < linenumWeights[l] {
				counts[l]++
				assigned++
				break
			}
			w -= linenumWeights[l]
		}
	}
	s.flagRuns.add(s.flag, cnt)
	s.dateRuns.add(day, cnt)
	for l := 0; l < LinenumMax; l++ {
		s.lnRuns.add(int64(l+1), counts[l])
		for k := int64(0); k < counts[l]; k++ {
			s.qty = append(s.qty, 1+r.intn(QuantityMax))
		}
	}
}

// rowShardSize is the row span of one orders/customer generation shard.
const rowShardSize = 1 << 17

// rowShards carves [0, n) into fixed-size shards (independent of the worker
// count, so shard PRNG streams are carving-stable).
func rowShards(n int64) []int64 {
	var starts []int64
	for s := int64(0); s < n; s += rowShardSize {
		starts = append(starts, s)
	}
	if len(starts) == 0 {
		starts = []int64{0}
	}
	return starts
}

// GenerateOrders writes the orders projection: CUSTKEY uniform over the
// customer key space (so a custkey < X predicate has linear selectivity, as
// Figure 13 requires) and an unsorted SHIPDATE payload column. Row-range
// shards generate in parallel from seed-per-shard streams; the two column
// files are written by independent tasks.
func GenerateOrders(dir string, cfg Config) error {
	custkey, shipdate, err := genOrders(cfg)
	if err != nil {
		return err
	}
	n := cfg.OrdersRows()
	return writeOrders(dir, custkey, shipdate, exec.Resolve(cfg.Workers), positions.Range{Start: 0, End: n})
}

// genOrders generates the orders row space into fixed-size row-shard
// buffers (carving-stable PRNG streams, so content is independent of worker
// count and of how the rows are later sliced).
func genOrders(cfg Config) (custkey, shipdate [][]int64, err error) {
	n := cfg.OrdersRows()
	nCust := cfg.CustomerRows()
	if nCust == 0 {
		return nil, nil, fmt.Errorf("tpch: scale %v yields no customers", cfg.Scale)
	}
	starts := rowShards(n)
	custkey = make([][]int64, len(starts))
	shipdate = make([][]int64, len(starts))
	workers := exec.Resolve(cfg.Workers)
	if err := exec.Run(workers, len(starts), func(i int) error {
		start := starts[i]
		end := start + rowShardSize
		if end > n {
			end = n
		}
		r := newRNG(cfg.Seed ^ 0x0bde ^ shardSalt(cfg.Seed, 'O', uint64(start), 0))
		ck := make([]int64, 0, end-start)
		sd := make([]int64, 0, end-start)
		for p := start; p < end; p++ {
			ck = append(ck, r.intn(nCust))
			sd = append(sd, r.intn(ShipdateDays))
		}
		custkey[i], shipdate[i] = ck, sd
		return nil
	}); err != nil {
		return nil, nil, err
	}
	return custkey, shipdate, nil
}

// writeOrders writes the global row range clip of the generated buffers as
// an orders projection directory.
func writeOrders(dir string, custkey, shipdate [][]int64, workers int, clip positions.Range) error {
	_, err := storage.WriteProjectionParallel(dir, OrdersProj, nil,
		[]storage.ColumnSpec{
			{Name: ColCustkey, Encoding: encoding.Plain},
			{Name: ColOrderShipdate, Encoding: encoding.Plain},
		},
		workers,
		func(col int, w *storage.ColumnWriter) error {
			cols := custkey
			if col == 1 {
				cols = shipdate
			}
			return appendClipped(w, cols, clip)
		})
	return err
}

// appendClipped appends rows [clip.Start, clip.End) of the concatenated
// buffers to a column writer.
func appendClipped(w *storage.ColumnWriter, bufs [][]int64, clip positions.Range) error {
	cursor := int64(0)
	for _, vals := range bufs {
		seg := positions.Range{Start: cursor, End: cursor + int64(len(vals))}
		cursor = seg.End
		o := seg.Intersect(clip)
		if o.Empty() {
			continue
		}
		for _, v := range vals[o.Start-seg.Start : o.End-seg.Start] {
			if err := w.Append(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// GenerateCustomer writes the customer projection: CUSTKEY is the primary
// key (equal to the row position) and NATIONCODE is uniform over 25
// nations.
func GenerateCustomer(dir string, cfg Config) error {
	nation, err := genCustomer(cfg)
	if err != nil {
		return err
	}
	return writeCustomer(dir, cfg.CustomerRows(), nation, exec.Resolve(cfg.Workers))
}

// genCustomer generates the NATIONCODE buffers (CUSTKEY is the row position
// and needs no buffer).
func genCustomer(cfg Config) ([][]int64, error) {
	n := cfg.CustomerRows()
	starts := rowShards(n)
	nation := make([][]int64, len(starts))
	workers := exec.Resolve(cfg.Workers)
	if err := exec.Run(workers, len(starts), func(i int) error {
		start := starts[i]
		end := start + rowShardSize
		if end > n {
			end = n
		}
		r := newRNG(cfg.Seed ^ 0xc057 ^ shardSalt(cfg.Seed, 'C', uint64(start), 0))
		nc := make([]int64, 0, end-start)
		for p := start; p < end; p++ {
			nc = append(nc, r.intn(Nations))
		}
		nation[i] = nc
		return nil
	}); err != nil {
		return nil, err
	}
	return nation, nil
}

// writeCustomer writes the full customer projection (customer is the
// scatter-gather replicated table, so there is no clipped variant).
func writeCustomer(dir string, n int64, nation [][]int64, workers int) error {
	_, err := storage.WriteProjectionParallel(dir, CustomerProj, []string{ColCustkey},
		[]storage.ColumnSpec{
			{Name: ColCustkey, Encoding: encoding.Plain},
			{Name: ColNationcode, Encoding: encoding.Plain},
		},
		workers,
		func(col int, w *storage.ColumnWriter) error {
			if col == 0 {
				for i := int64(0); i < n; i++ {
					if err := w.Append(i); err != nil {
						return err
					}
				}
				return nil
			}
			for _, vals := range nation {
				for _, v := range vals {
					if err := w.Append(v); err != nil {
						return err
					}
				}
			}
			return nil
		})
	return err
}

// LinenumColumn returns the lineitem LINENUM column name for an encoding.
func LinenumColumn(k encoding.Kind) string {
	switch k {
	case encoding.RLE:
		return ColLinenumRLE
	case encoding.BitVector:
		return ColLinenumBV
	default:
		return ColLinenum
	}
}

// ShipdateForSelectivity returns the shipdate constant X such that
// shipdate < X has approximately the given selectivity.
func ShipdateForSelectivity(sel float64) int64 {
	x := int64(sel * ShipdateDays)
	if x < 0 {
		x = 0
	}
	if x > ShipdateDays {
		x = ShipdateDays
	}
	return x
}

// CustkeyForSelectivity returns X such that custkey < X over nCust uniform
// keys has approximately the given selectivity.
func CustkeyForSelectivity(sel float64, nCust int64) int64 {
	x := int64(sel * float64(nCust))
	if x < 0 {
		x = 0
	}
	if x > nCust {
		x = nCust
	}
	return x
}
