package perf

import (
	"sort"
	"time"
)

// Host-speed calibration.
//
// The machines this benchmark runs on are small virtual machines on shared
// hosts, and how fast such a machine executes anything moves with what its
// neighbours do: on the 2-vCPU box this was built on, one commit read 80
// ops/s for five minutes and 135 ops/s for the next five on serve_cold, and
// the fastest op, the median op and a spin loop that touches no memory all
// slowed by the same factor of 1.7. No statistic of wall-clock times taken
// inside one run survives that, because the whole run is slow.
//
// So the driver measures the host as it measures the program. Between ops,
// at most every calEvery, the client runs a fixed kernel of the benchmark's
// own (arithmetic over a table that stays in the first-level cache: no code
// of the repository, so no change to the program can move it) and notes how
// long it took relative to calRef. That ratio is the host's speed factor at
// that moment: 1 on a quiet machine of the reference kind, 1.7 when
// everything takes 1.7 times as long. Every timed interval of the end-to-end
// metrics is divided by the factor around it, so the metrics read in
// milliseconds and seconds *at reference speed*. The time the kernel itself
// takes (about half a percent of a window) is left out of every interval.
//
// What this cancels is what slows all code alike: a vCPU that gets less of
// its core, a lower clock, a busy sibling thread. It does not cancel
// contention for memory bandwidth, which slows a scan and not the kernel, nor
// a stall inside one op; those stay in the numbers as run-to-run spread.
const (
	calEvery = 50 * time.Millisecond
	// calRef is what the kernel takes on a quiet vCPU of the machine the
	// benchmark was built on (Xeon, Sapphire Rapids class, 2.1 GHz nominal).
	// On another machine every factor is off by one constant, which no
	// comparison of two commits on that machine sees.
	calRef = 275 * time.Microsecond
	// The factor at a moment is the mean of the calSmooth samples nearest to
	// it (about a second's worth), without the calTrim highest and lowest: a
	// vCPU that is taken away for a millisecond now and then shows as a few
	// slow kernel runs, which belong in the mean, while one that was taken away
	// for ten milliseconds mid-kernel would count forty-fold, and is dropped.
	calSmooth = 21
	calTrim   = 2
	calRounds = 400
)

var (
	calTable [2048]uint64 // 16 KB
	calSink  uint64
)

func init() {
	r := rng{state: 0x63616c}
	for i := range calTable {
		calTable[i] = r.next() >> 40
	}
}

// calKernel is the fixed work the host is timed on: loads, adds, shifts and
// multiplies over four independent chains, enough of a mix that it slows when
// the core's execution units are shared, not only when its clock drops. It
// has no data-dependent branch: what it takes must not depend on what the
// branch predictor remembers.
func calKernel() {
	var a, b, c, d uint64 = 1, 2, 3, 4
	for r := 0; r < calRounds; r++ {
		for i := 0; i < len(calTable); i += 4 {
			a += calTable[i] ^ (a >> 3)
			b = b*3 + calTable[i+1]
			c += calTable[i+2] >> (c & 7)
			d ^= calTable[i+3] + b
		}
	}
	calSink += a + b + c + d
}

// speedometer keeps the speed-factor samples of one run.
type speedometer struct {
	epoch time.Time
	last  time.Time     // end of the latest sample
	spent time.Duration // total time inside the kernel
	at    []time.Duration
	f     []float64
}

func newSpeedometer() *speedometer { return &speedometer{epoch: time.Now()} }

// since is the run's clock: time since the speedometer was made.
func (m *speedometer) since(t time.Time) time.Duration { return t.Sub(m.epoch) }

// sample times the kernel now.
func (m *speedometer) sample() {
	t := time.Now()
	calKernel()
	m.last = time.Now()
	d := m.last.Sub(t)
	m.spent += d
	m.at = append(m.at, m.since(t)+d/2)
	m.f = append(m.f, float64(d)/float64(calRef))
}

// tick samples if calEvery has passed since the latest sample.
func (m *speedometer) tick() {
	if time.Since(m.last) >= calEvery {
		m.sample()
	}
}

// factorAt is the host's speed factor around a moment of the run's clock.
func (m *speedometer) factorAt(at time.Duration) float64 {
	n := len(m.at)
	i := sort.Search(n, func(i int) bool { return m.at[i] >= at })
	lo := i - calSmooth/2
	if lo > n-calSmooth {
		lo = n - calSmooth
	}
	if lo < 0 {
		lo = 0
	}
	hi := lo + calSmooth
	if hi > n {
		hi = n
	}
	return trimmedMean(m.f[lo:hi], calTrim)
}

// trimmedMean is the mean of the values without the trim highest and the trim
// lowest; of all of them when that would leave none; 1 for no values.
func trimmedMean(values []float64, trim int) float64 {
	if len(values) == 0 {
		return 1
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) > 2*trim {
		v = v[trim : len(v)-trim]
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// factorSince is the factor over the samples from the from-th on.
func (m *speedometer) factorSince(from int) float64 {
	return trimmedMean(m.f[from:], calTrim)
}
