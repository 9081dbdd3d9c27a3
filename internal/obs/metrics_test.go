package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter", "h")
	c.Inc()
	c.Add(4)
	c.Add(-2) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "h")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got)
	}
}

func TestRegistryHandleIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_id", "h", L("method", "mr"))
	b := r.Counter("test_id", "h", L("method", "mr"))
	if a != b {
		t.Error("same name+labels should return the same handle")
	}
	c := r.Counter("test_id", "h", L("method", "rescue"))
	if a == c {
		t.Error("different labels should return distinct handles")
	}
	a.Inc()
	if b.Value() != 1 || c.Value() != 0 {
		t.Errorf("handles not independent: b=%d c=%d", b.Value(), c.Value())
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_conflict", "h")
	defer func() {
		if recover() == nil {
			t.Error("registering one name as two kinds should panic")
		}
	}()
	r.Gauge("test_conflict", "h")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist_bounds", "h", []float64{0.1, 1, 10})
	// Exactly on a bound lands in that bucket (le semantics: v <= bound).
	for _, v := range []float64{0.1, 1, 10} {
		h.Observe(v)
	}
	h.Observe(0.05) // below the first bound
	h.Observe(11)   // overflow: only the implicit +Inf bucket
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.1+1+10+0.05+11; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %v, want %v", got, want)
	}
	// Cumulative bucket counts via the exposition path.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`test_hist_bounds_bucket{le="0.1"} 2`,
		`test_hist_bounds_bucket{le="1"} 3`,
		`test_hist_bounds_bucket{le="10"} 4`,
		`test_hist_bounds_bucket{le="+Inf"} 5`,
		`test_hist_bounds_count 5`,
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition missing %q in:\n%s", line, sb.String())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	for _, v := range []float64{0.5, 0.6, 1.5, 3} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want upper bound 1", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	h.Observe(100)
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("overflow quantile = %v, want +Inf", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := newHistogram(DefSecondsBuckets)
	h.ObserveDuration(300 * time.Second)
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if h.Sum() < 300 {
		t.Errorf("sum = %v, want >= 300", h.Sum())
	}
}

// TestWritePrometheusGolden pins the exact exposition format.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_counter", "Decisions made.", L("method", "mr")).Add(3)
	r.Gauge("t_gauge", "Active requests.").Set(2.5)
	h := r.Histogram("t_hist", "Decide latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_counter Decisions made.
# TYPE t_counter counter
t_counter{method="mr"} 3
# HELP t_gauge Active requests.
# TYPE t_gauge gauge
t_gauge 2.5
# HELP t_hist Decide latency.
# TYPE t_hist histogram
t_hist_bucket{le="0.1"} 1
t_hist_bucket{le="1"} 2
t_hist_bucket{le="+Inf"} 3
t_hist_sum 2.55
t_hist_count 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_escape", "h", L("q", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `t_escape{q="a\"b\\c\nd"} 1`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

// TestRegistryConcurrency exercises the registry and every metric kind
// from many goroutines; run with -race.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("conc_counter", "h").Inc()
				r.Gauge("conc_gauge", "h").Set(float64(j))
				r.Histogram("conc_hist", "h", []float64{1, 10}).Observe(float64(j % 20))
				if j%50 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("conc_counter", "h").Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("conc_gauge", "h").Value(); got != iters-1 {
		t.Errorf("gauge = %v, want %d", got, iters-1)
	}
	if got := r.Histogram("conc_hist", "h", nil).Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

// TestRegistryFirstUseRace has many goroutines make the first use of
// one counter, gauge and histogram at the same instant: every caller
// must receive the same handle, so no update lands in a handle the
// registry does not hold (run under -race).
func TestRegistryFirstUseRace(t *testing.T) {
	const goroutines = 32
	for round := 0; round < 20; round++ {
		r := NewRegistry()
		counters := make([]*Counter, goroutines)
		gauges := make([]*Gauge, goroutines)
		hists := make([]*Histogram, goroutines)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(goroutines)
		for i := 0; i < goroutines; i++ {
			go func(i int) {
				defer done.Done()
				start.Wait()
				counters[i] = r.Counter("first_counter", "h")
				gauges[i] = r.Gauge("first_gauge", "h")
				hists[i] = r.Histogram("first_hist", "h", []float64{1})
				counters[i].Inc()
				gauges[i].Set(1)
				hists[i].Observe(0.5)
			}(i)
		}
		start.Done()
		done.Wait()
		for i := 1; i < goroutines; i++ {
			if counters[i] != counters[0] || gauges[i] != gauges[0] || hists[i] != hists[0] {
				t.Fatalf("round %d: goroutine %d received a different handle on first use", round, i)
			}
		}
		if got := r.Counter("first_counter", "h").Value(); got != goroutines {
			t.Fatalf("round %d: counter = %d, want %d", round, got, goroutines)
		}
		if got := r.Gauge("first_gauge", "h").Value(); got != 1 {
			t.Fatalf("round %d: gauge = %v, want 1", round, got)
		}
		if got := r.Histogram("first_hist", "h", nil).Count(); got != goroutines {
			t.Fatalf("round %d: histogram count = %d, want %d", round, got, goroutines)
		}
	}
}

// TestNilRegistryAndHandles verifies the disabled path is safe end to end.
func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x", "h", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry should hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles should read as zero")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("nil histogram quantile should be NaN")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	r.WriteSummary(&strings.Builder{})
	r.PublishExpvar("nil-registry")
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("nil snapshot = %v, want empty", snap)
	}
}

// TestNoopAllocations pins the acceptance criterion: the disabled
// instrumentation path performs zero allocations.
func TestNoopAllocations(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	if n := testing.AllocsPerRun(100, func() { c.Inc(); c.Add(2) }); n != 0 {
		t.Errorf("nil Counter: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { g.Set(1) }); n != 0 {
		t.Errorf("nil Gauge: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(1); h.ObserveDuration(time.Second) }); n != 0 {
		t.Errorf("nil Histogram: %v allocs/op, want 0", n)
	}
}

func TestSnapshotShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("snap_counter", "h", L("method", "mr")).Add(2)
	r.Histogram("snap_hist", "h", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if got := snap[`snap_counter{method="mr"}`]; got != int64(2) {
		t.Errorf("counter snapshot = %v (%T), want 2", got, got)
	}
	hist, ok := snap["snap_hist"].(map[string]any)
	if !ok {
		t.Fatalf("histogram snapshot = %T, want map", snap["snap_hist"])
	}
	if hist["count"] != int64(1) {
		t.Errorf("histogram count = %v, want 1", hist["count"])
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.PublishExpvar("test-publish-idempotent")
	r.PublishExpvar("test-publish-idempotent") // second call must not panic
	r2 := NewRegistry()
	r2.PublishExpvar("test-publish-idempotent") // collision must not panic
}
