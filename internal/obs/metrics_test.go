package obs

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "latency", []float64{0.001, 0.01, 0.1})
	// Prometheus buckets are upper-inclusive: an observation exactly on a
	// bound lands in that bucket.
	h.Observe(0.0005) // bucket 0
	h.Observe(0.001)  // bucket 0 (le=0.001 inclusive)
	h.Observe(0.0011) // bucket 1
	h.Observe(0.1)    // bucket 2
	h.Observe(99)     // +Inf
	want := []int64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	samples := r.Gather()
	// Cumulative rendering: le=0.001 → 2, le=0.01 → 3, le=0.1 → 4, +Inf → 5.
	wantCum := map[string]float64{"0.001": 2, "0.01": 3, "0.1": 4, "+Inf": 5}
	for _, s := range samples {
		if s.Name != "lat_bucket" {
			continue
		}
		le := s.Labels[len(s.Labels)-1].Value
		if s.Value != wantCum[le] {
			t.Fatalf("le=%s cum = %v, want %v", le, s.Value, wantCum[le])
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "latency", LatencyBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 1024
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%16) * 0.001)
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var wantSum float64
	for i := 0; i < 16; i++ {
		wantSum += float64(i) * 0.001
	}
	wantSum *= workers * per / 16
	gotSum := math.Float64frombits(h.sumBits.Load())
	if math.Abs(gotSum-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", gotSum, wantSum)
	}
}

// TestPrometheusRoundTrip pins the /metrics wire contract: rendering the
// registry and parsing the text back must reproduce the Gather() samples
// exactly — names, label sets, values — and rendering twice must be
// byte-identical (deterministic ordering).
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("cs_queries_total", "total queries")
	c.Add(7)
	cv := r.NewCounterVec("cs_requests_total", "requests by endpoint", "endpoint", "outcome")
	cv.With("/query", "ok").Add(3)
	cv.With("/join", "error").Inc()
	r.NewGaugeFunc("cs_uptime_seconds", "uptime", func() float64 { return 12.5 })
	h := r.NewHistogram("cs_request_seconds", "request latency", LatencyBuckets())
	h.Observe(0.003)
	h.Observe(0.2)
	hv := r.NewHistogramVec("cs_shard_request_seconds", "shard latency", []float64{0.01, 0.1}, "shard")
	hv.With("0").Observe(0.05)
	r.NewCollector("cs_cache_events_total", "cache events", "counter", []string{"cache", "event"},
		func(emit func([]string, float64)) {
			emit([]string{"result", "hit"}, 4)
			emit([]string{"result", `mi"ss\strange`}, 2)
		})

	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("rendering is not deterministic")
	}
	parsed, err := ParsePrometheus(b1.String())
	if err != nil {
		t.Fatalf("parse back: %v\n%s", err, b1.String())
	}
	want := r.Gather()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d samples, want %d", len(parsed), len(want))
	}
	for i := range want {
		if parsed[i].Name != want[i].Name || !reflect.DeepEqual(parsed[i].Labels, want[i].Labels) {
			t.Fatalf("sample %d: parsed %+v, want %+v", i, parsed[i], want[i])
		}
		// +Inf compares by equality; finite values must round-trip exactly
		// through the 'g' formatting.
		if parsed[i].Value != want[i].Value && !(math.IsInf(parsed[i].Value, 1) && math.IsInf(want[i].Value, 1)) {
			t.Fatalf("sample %d %s: parsed %v, want %v", i, want[i].Name, parsed[i].Value, want[i].Value)
		}
	}
	// Histogram invariants in the rendered text: cumulative buckets are
	// non-decreasing and _count equals the +Inf bucket.
	var lastCum float64
	var infCum, count float64
	for _, s := range parsed {
		if s.Name == "cs_request_seconds_bucket" {
			if s.Value < lastCum {
				t.Fatalf("bucket series decreases: %v after %v", s.Value, lastCum)
			}
			lastCum = s.Value
			if s.Labels[len(s.Labels)-1].Value == "+Inf" {
				infCum = s.Value
			}
		}
		if s.Name == "cs_request_seconds_count" {
			count = s.Value
		}
	}
	if infCum != 2 || count != 2 {
		t.Fatalf("+Inf cum %v and count %v, want 2", infCum, count)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"cs_x 1\n",                                         // no TYPE line
		"# TYPE cs_x counter\ncs_x notanumber\n",           // bad value
		"# TYPE cs_x counter\ncs_x{oops 1\n",               // unterminated labels
		"# TYPE cs_x wibble\ncs_x 1\n",                     // unknown type
		"# TYPE cs_x counter\n# WHAT cs_x\ncs_x 1ically\n", // unknown comment
	} {
		if _, err := ParsePrometheus(bad); err == nil {
			t.Fatalf("ParsePrometheus(%q) accepted malformed input", bad)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 7)
	want := []float64{1, 2, 4, 8, 16, 32, 64}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExpBuckets = %v", got)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Count returns the total observation count.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Gather snapshots every family's samples in family registration units,
// sorted by family name (stable across scrapes: series order within a
// family is deterministic by construction).
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	fams := append([]metricFamily(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool {
		ni, _, _ := fams[i].desc()
		nj, _, _ := fams[j].desc()
		return ni < nj
	})
	var out []Sample
	for _, f := range fams {
		out = append(out, f.samples()...)
	}
	return out
}
