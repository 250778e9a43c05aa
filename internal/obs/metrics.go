package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Hand-rolled Prometheus-text metrics: counters, gauges and fixed-bucket
// histograms behind one Registry that renders the text exposition format
// (the /metrics wire format) deterministically. No client library — the
// serving stack needs exactly three primitives and a writer, and the
// container bakes in no dependencies.
//
// Hot-path cost: Counter.Add and Histogram.Observe are a handful of atomic
// operations and allocate nothing. Vec lookups (label resolution) build a
// key string — callers on allocation-sensitive paths pre-resolve with With()
// at construction time and hold the child.

// Sample is one rendered series: full name (with any _bucket/_sum/_count
// suffix), ordered labels, value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label is one name="value" pair.
type Label struct{ Key, Value string }

type metricFamily interface {
	desc() (name, help, typ string)
	samples() []Sample
}

// Registry holds metric families and renders them.
type Registry struct {
	mu       sync.Mutex
	families []metricFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(f metricFamily) {
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
}

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

type counterFamily struct {
	name, help string
	c          Counter
}

func (f *counterFamily) desc() (string, string, string) { return f.name, f.help, "counter" }
func (f *counterFamily) samples() []Sample {
	return []Sample{{Name: f.name, Value: float64(f.c.Value())}}
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := &counterFamily{name: name, help: help}
	r.register(f)
	return &f.c
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	kids       map[string]*Counter
}

func (v *CounterVec) desc() (string, string, string) { return v.name, v.help, "counter" }

// With returns (creating if needed) the child counter for the label values.
// The lookup builds a key string; pre-resolve outside hot loops.
func (v *CounterVec) With(values ...string) *Counter {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[key]; ok {
		return c
	}
	c := &Counter{}
	v.kids[key] = c
	return c
}

// Snapshot returns the vec's current series — the /stats-style summary hook
// for callers that want the counts without a full text scrape.
func (v *CounterVec) Snapshot() []Sample { return v.samples() }

func (v *CounterVec) samples() []Sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		out = append(out, Sample{Name: v.name, Labels: zipLabels(v.labels, k), Value: float64(v.kids[k].Value())})
	}
	return out
}

func zipLabels(names []string, key string) []Label {
	values := strings.Split(key, "\x00")
	ls := make([]Label, len(names))
	for i, n := range names {
		val := ""
		if i < len(values) {
			val = values[i]
		}
		ls[i] = Label{Key: n, Value: val}
	}
	return ls
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labels, kids: map[string]*Counter{}}
	r.register(v)
	return v
}

type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (f *gaugeFunc) desc() (string, string, string) { return f.name, f.help, "gauge" }
func (f *gaugeFunc) samples() []Sample {
	return []Sample{{Name: f.name, Value: f.fn()}}
}

// NewGaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&gaugeFunc{name: name, help: help, fn: fn})
}

type constMetric struct {
	name, help, typ string
	labels          []string
	collect         func(emit func(values []string, v float64))
}

func (f *constMetric) desc() (string, string, string) { return f.name, f.help, f.typ }
func (f *constMetric) samples() []Sample {
	var out []Sample
	f.collect(func(values []string, v float64) {
		out = append(out, Sample{Name: f.name, Labels: zipLabels(f.labels, strings.Join(values, "\x00")), Value: v})
	})
	sort.Slice(out, func(i, j int) bool { return labelsLess(out[i].Labels, out[j].Labels) })
	return out
}

func labelsLess(a, b []Label) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i].Value != b[i].Value {
			return a[i].Value < b[i].Value
		}
	}
	return len(a) < len(b)
}

// NewCollector registers a family whose series are derived at scrape time
// from existing stats snapshots (avoids double-instrumenting subsystems
// that already count): collect is called per scrape and emits each series'
// label values and value. typ is "counter" or "gauge".
func (r *Registry) NewCollector(name, help, typ string, labels []string, collect func(emit func(values []string, v float64))) {
	r.register(&constMetric{name: name, help: help, typ: typ, labels: labels, collect: collect})
}

// Histogram is a fixed-bucket histogram: atomic per-bucket counts plus a
// CAS-maintained float sum. Observe is allocation-free.
type Histogram struct {
	upper   []float64 // ascending upper bounds; the implicit last bucket is +Inf
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	return &Histogram{upper: up, counts: make([]atomic.Int64, len(up)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// bucketSamples renders the cumulative _bucket/_sum/_count series.
func (h *Histogram) bucketSamples(name string, base []Label) []Sample {
	out := make([]Sample, 0, len(h.upper)+3)
	var cum int64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		out = append(out, Sample{
			Name:   name + "_bucket",
			Labels: append(append([]Label{}, base...), Label{Key: "le", Value: formatFloat(ub)}),
			Value:  float64(cum),
		})
	}
	cum += h.counts[len(h.upper)].Load()
	out = append(out, Sample{
		Name:   name + "_bucket",
		Labels: append(append([]Label{}, base...), Label{Key: "le", Value: "+Inf"}),
		Value:  float64(cum),
	})
	out = append(out, Sample{Name: name + "_sum", Labels: base, Value: math.Float64frombits(h.sumBits.Load())})
	out = append(out, Sample{Name: name + "_count", Labels: base, Value: float64(cum)})
	return out
}

type histogramFamily struct {
	name, help string
	h          *Histogram
}

func (f *histogramFamily) desc() (string, string, string) { return f.name, f.help, "histogram" }
func (f *histogramFamily) samples() []Sample              { return f.h.bucketSamples(f.name, nil) }

// NewHistogram registers an unlabeled histogram over the given bucket upper
// bounds (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	f := &histogramFamily{name: name, help: help, h: newHistogram(buckets)}
	r.register(f)
	return f.h
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	name, help string
	labels     []string
	buckets    []float64
	mu         sync.Mutex
	kids       map[string]*Histogram
}

func (v *HistogramVec) desc() (string, string, string) { return v.name, v.help, "histogram" }

// With returns (creating if needed) the child histogram for the label
// values. Pre-resolve outside hot loops.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.kids[key]; ok {
		return h
	}
	h := newHistogram(v.buckets)
	v.kids[key] = h
	return h
}

func (v *HistogramVec) samples() []Sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []Sample
	for _, k := range keys {
		out = append(out, v.kids[k].bucketSamples(v.name, zipLabels(v.labels, k))...)
	}
	return out
}

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, labels: labels, buckets: buckets, kids: map[string]*Histogram{}}
	r.register(v)
	return v
}

// LatencyBuckets is the fixed log-scale (1-2.5-5 per decade) latency bucket
// ladder in seconds, 100µs through 10s — wide enough for cache hits and
// spilled fan-outs on the same axis.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005,
		0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

// ExpBuckets returns count buckets starting at start, each factor× the
// previous — e.g. ExpBuckets(1, 2, 7) = 1,2,4,8,16,32,64 for worker grants.
func ExpBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE per family, then each series.
// Output is deterministic for a fixed set of observed label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]metricFamily(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool {
		ni, _, _ := fams[i].desc()
		nj, _, _ := fams[j].desc()
		return ni < nj
	})
	var b strings.Builder
	for _, f := range fams {
		name, help, typ := f.desc()
		fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, s := range f.samples() {
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Key)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// ParsePrometheus parses text in the Prometheus exposition format back into
// samples, validating the format as it goes: every series must follow a
// # TYPE line for its family, label syntax must be well-formed, and values
// must parse as floats. It is the round-trip half of the /metrics contract
// test (and deliberately strict — a malformed exposition fails loudly).
func ParsePrometheus(text string) ([]Sample, error) {
	var out []Sample
	typed := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, parts[3])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unknown comment %q", ln+1, line)
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		if familyOf(s.Name, typed) == "" {
			return nil, fmt.Errorf("line %d: series %q has no preceding # TYPE", ln+1, s.Name)
		}
		out = append(out, s)
	}
	return out, nil
}

// familyOf resolves a series name to its typed family, accounting for
// histogram suffixes.
func familyOf(name string, typed map[string]string) string {
	if _, ok := typed[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t, ok := typed[base]; ok && (t == "histogram" || t == "summary") {
				return base
			}
		}
	}
	return ""
}

func parseSampleLine(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed series line %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		body, tail := rest[1:end], rest[end+1:]
		for len(body) > 0 {
			eq := strings.Index(body, "=\"")
			if eq < 0 {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			key := body[:eq]
			body = body[eq+2:]
			var val strings.Builder
			i := 0
			for ; i < len(body); i++ {
				if body[i] == '\\' && i+1 < len(body) {
					i++
					switch body[i] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(body[i])
					}
					continue
				}
				if body[i] == '"' {
					break
				}
				val.WriteByte(body[i])
			}
			if i >= len(body) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.Labels = append(s.Labels, Label{Key: key, Value: val.String()})
			body = strings.TrimPrefix(body[i+1:], ",")
		}
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	var v float64
	switch rest {
	case "+Inf":
		v = math.Inf(1)
	case "-Inf":
		v = math.Inf(-1)
	default:
		var err error
		if v, err = strconv.ParseFloat(rest, 64); err != nil {
			return s, fmt.Errorf("bad value %q: %w", rest, err)
		}
	}
	s.Value = v
	return s, nil
}
