// Package obs is the stdlib-only observability subsystem threaded through
// the MobiRescue pipeline: a concurrent metrics registry (counters,
// gauges, fixed-bucket histograms) with Prometheus text-format and expvar
// exposition, lightweight hierarchical tracing spans, a structured-logging
// helper over log/slog, and an opt-in ops HTTP server.
//
// Everything is nil-safe: a nil *Registry hands out nil metric handles,
// and every method on a nil handle (or nil *Span) is a no-op that
// performs zero allocations — so instrumented hot paths pay ~zero cost
// when observability is disabled, which is the default.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one constant key=value pair attached to a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter is a valid no-op.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a valid
// no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with Prometheus cumulative-bucket
// semantics: an observation v lands in every bucket whose upper bound is
// >= v. A nil *Histogram is a valid no-op.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds (le)
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// newHistogram builds a histogram over the given upper bounds, which must
// be strictly increasing. An implicit +Inf bucket is always present.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (~20) and the branch predictor
	// beats binary search at that size.
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns an upper-bound estimate for quantile q in [0,1] from
// the bucket counts (the bucket's upper bound once cumulative mass
// reaches q). It returns +Inf when the quantile falls in the overflow
// bucket and NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.Count() == 0 {
		return math.NaN()
	}
	target := q * float64(h.count.Load())
	cum := 0.0
	for i, b := range h.bounds {
		cum += float64(h.buckets[i].Load())
		if cum >= target {
			return b
		}
	}
	return math.Inf(1)
}

// DefSecondsBuckets covers the full range the pipeline cares about: from
// sub-millisecond RL inference through the baselines' ~300 s modeled IP
// solves (the Fig. 18 computation-delay comparison).
var DefSecondsBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// DefCountBuckets is a powers-of-two scale for discrete size
// distributions (queue depths, transitions per training episode, batch
// sizes) — anything counted rather than timed.
var DefCountBuckets = []float64{
	1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// entry is one registered metric instance (a name plus one label set).
type entry struct {
	name    string
	labels  []Label // sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every label set registered under one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	entries []*entry
}

// Registry is a concurrent collection of metrics. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid
// "disabled" registry: every constructor returns a nil (no-op) handle.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	byKey    map[string]*entry

	expvarOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		byKey:    make(map[string]*entry),
	}
}

// sortLabels returns a sorted copy of labels.
func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// metricKey canonically identifies one name+labels instance.
func metricKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	for _, l := range labels {
		sb.WriteByte(0xff)
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

// lookup finds or creates an entry, enforcing kind consistency per name.
// A new entry gets its kind's handle (a histogram with the given bounds)
// before the lock is released, so concurrent first uses of one metric
// all receive the same handle.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *entry {
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if e, ok := r.byKey[key]; ok {
		return e
	}
	e := &entry{name: name, labels: labels}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindGauge:
		e.gauge = &Gauge{}
	case kindHistogram:
		e.hist = newHistogram(bounds)
	}
	f.entries = append(f.entries, e)
	r.byKey[key] = e
	return e
}

// Counter returns the counter registered under name+labels, creating it
// on first use. On a nil registry it returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use. On a nil registry it returns a nil (no-op) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge, nil, labels).gauge
}

// Histogram returns the histogram registered under name+labels, creating
// it with the given upper bounds on first use (later calls reuse the
// original buckets). On a nil registry it returns a nil (no-op)
// histogram.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DefSecondsBuckets
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).hist
}

// escapeLabelValue escapes a label value per the Prometheus text format.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatLabels renders {k="v",...}, optionally with an extra trailing
// label (used for histogram le). Returns "" for no labels.
func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a sample value in Prometheus style.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format, sorted by metric name then label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()

	var sb strings.Builder
	for _, f := range fams {
		r.mu.RLock()
		entries := append([]*entry(nil), f.entries...)
		r.mu.RUnlock()
		sort.Slice(entries, func(i, j int) bool {
			return metricKey(entries[i].name, entries[i].labels) < metricKey(entries[j].name, entries[j].labels)
		})
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		for _, e := range entries {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&sb, "%s%s %d\n", e.name, formatLabels(e.labels), e.counter.Value())
			case kindGauge:
				fmt.Fprintf(&sb, "%s%s %s\n", e.name, formatLabels(e.labels), formatFloat(e.gauge.Value()))
			case kindHistogram:
				h := e.hist
				cum := int64(0)
				for i, b := range h.bounds {
					cum += h.buckets[i].Load()
					fmt.Fprintf(&sb, "%s_bucket%s %d\n", e.name, formatLabels(e.labels, L("le", formatFloat(b))), cum)
				}
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", e.name, formatLabels(e.labels, L("le", "+Inf")), h.Count())
				fmt.Fprintf(&sb, "%s_sum%s %s\n", e.name, formatLabels(e.labels), formatFloat(h.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", e.name, formatLabels(e.labels), h.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Snapshot returns a flat map of every metric's current value, suitable
// for expvar publication. Histograms expose count/sum/p50/p99 estimates.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		for _, e := range f.entries {
			key := e.name + formatLabels(e.labels)
			switch f.kind {
			case kindCounter:
				out[key] = e.counter.Value()
			case kindGauge:
				out[key] = e.gauge.Value()
			case kindHistogram:
				out[key] = map[string]any{
					"count": e.hist.Count(),
					"sum":   e.hist.Sum(),
					"p50":   jsonSafe(e.hist.Quantile(0.50)),
					"p99":   jsonSafe(e.hist.Quantile(0.99)),
				}
			}
		}
	}
	return out
}

// jsonSafe renders non-finite quantile estimates (+Inf when the mass
// sits in the overflow bucket, NaN when empty) as strings: expvar
// serializes the snapshot with encoding/json, which rejects non-finite
// floats — one +Inf p99 would otherwise corrupt the whole /debug/vars
// document.
func jsonSafe(v float64) any {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return formatFloat(v)
	}
	return v
}

// PublishExpvar publishes the registry under the given expvar name
// (idempotent; repeated calls and name collisions are ignored so tests
// can call it freely).
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	r.expvarOnce.Do(func() {
		if expvar.Get(name) != nil {
			return
		}
		expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	})
}

// WriteSummary writes a short human-readable dump of every metric (the
// end-of-run report's "key counters" section).
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	type line struct{ key, val string }
	var lines []line
	for _, n := range names {
		f := r.families[n]
		entries := append([]*entry(nil), f.entries...)
		sort.Slice(entries, func(i, j int) bool {
			return metricKey(entries[i].name, entries[i].labels) < metricKey(entries[j].name, entries[j].labels)
		})
		for _, e := range entries {
			key := e.name + formatLabels(e.labels)
			switch f.kind {
			case kindCounter:
				lines = append(lines, line{key, strconv.FormatInt(e.counter.Value(), 10)})
			case kindGauge:
				lines = append(lines, line{key, formatFloat(e.gauge.Value())})
			case kindHistogram:
				h := e.hist
				mean := math.NaN()
				if h.Count() > 0 {
					mean = h.Sum() / float64(h.Count())
				}
				lines = append(lines, line{key, fmt.Sprintf(
					"count=%d sum=%s mean=%s p50<=%s p99<=%s",
					h.Count(), formatFloat(h.Sum()), formatFloat(mean),
					formatFloat(h.Quantile(0.5)), formatFloat(h.Quantile(0.99)))})
			}
		}
	}
	r.mu.RUnlock()
	width := 0
	for _, l := range lines {
		if len(l.key) > width {
			width = len(l.key)
		}
	}
	for _, l := range lines {
		fmt.Fprintf(w, "  %-*s  %s\n", width, l.key, l.val)
	}
}
