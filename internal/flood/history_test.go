package flood

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"mobirescue/internal/roadnet"
	"mobirescue/internal/weather"
)

func newTestHistory(t *testing.T, hours int) *History {
	t.Helper()
	storm := weather.FlorencePreset(t0, downtown)
	m, err := NewModel(storm, flatElev(192), testBBox(), t0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHistory(m, hours)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewHistoryValidation(t *testing.T) {
	if _, err := NewHistory(nil, 10); err == nil {
		t.Error("nil model should error")
	}
	m, err := NewModel(weather.Calm{}, flatElev(200), testBBox(), t0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHistory(m, 0); err == nil {
		t.Error("zero hours should error")
	}
}

func TestHistoryWindow(t *testing.T) {
	g, _ := buildTestGraph(t, 192)
	h := newTestHistory(t, 96)
	// Snapshots clamp to the covered window [t0, t0+96h].
	if at := h.RoadStateAt(g, t0.Add(-10*time.Hour)).At; !at.Equal(t0) {
		t.Errorf("window start = %v", at)
	}
	if at := h.RoadStateAt(g, t0.Add(200*time.Hour)).At; !at.Equal(t0.Add(96 * time.Hour)) {
		t.Errorf("window end = %v", at)
	}
}

func TestHistoryDepthEvolves(t *testing.T) {
	h := newTestHistory(t, 96)
	before := h.DepthAt(downtown, t0)
	mid := h.DepthAt(downtown, t0.Add(48*time.Hour))
	if before != 0 {
		t.Errorf("depth at start = %v, want 0", before)
	}
	if mid <= 0 {
		t.Errorf("mid-storm depth = %v, want > 0", mid)
	}
	// Clamping: querying far before/after the window uses the edges.
	if got := h.DepthAt(downtown, t0.Add(-10*time.Hour)); got != before {
		t.Errorf("pre-window query = %v, want %v", got, before)
	}
	end := h.DepthAt(downtown, t0.Add(96*time.Hour))
	if got := h.DepthAt(downtown, t0.Add(196*time.Hour)); got != end {
		t.Errorf("post-window query = %v, want %v", got, end)
	}
}

func TestHistoryMatchesModel(t *testing.T) {
	storm := weather.FlorencePreset(t0, downtown)
	mkModel := func() *Model {
		m, err := NewModel(storm, flatElev(192), testBBox(), t0, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	h, err := NewHistory(mkModel(), 72)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh model advanced to hour 36 must agree with the history.
	m := mkModel()
	m.AdvanceTo(t0.Add(36 * time.Hour))
	if !reflect.DeepEqual(h.grids[36], m.accum) {
		t.Error("history's hour-36 grid differs from a model advanced to hour 36")
	}
}

func TestHistoryInFloodZone(t *testing.T) {
	h := newTestHistory(t, 96)
	if h.InFloodZone(downtown, t0) {
		t.Error("flood zone at start")
	}
	if !h.InFloodZone(downtown, t0.Add(60*time.Hour)) {
		t.Errorf("no flood zone at peak (depth=%v)", h.DepthAt(downtown, t0.Add(60*time.Hour)))
	}
}

func TestHistoryRoadStateAt(t *testing.T) {
	g, seg := buildTestGraph(t, 192)
	h := newTestHistory(t, 96)
	dry := h.RoadStateAt(g, t0)
	if dry.SpeedFactor(seg) == 0 {
		t.Error("road closed before the storm")
	}
	wet := h.RoadStateAt(g, t0.Add(60*time.Hour))
	if wet.SpeedFactor(seg) >= 1 {
		t.Errorf("peak-storm road unaffected (depth=%v)", wet.Depth(seg))
	}
}

// testCity is a generated 4×4-per-region city over the test storm's
// area, so road states span many grid cells and depths.
func testCity(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	city, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return city.Graph
}

// TestRoadStateAtMatchesDepthLoop pins the shared hourly states to a
// fresh per-segment DepthAt loop, bit for bit, at every hour of the
// window, at instants inside an hour, and before and after the window.
func TestRoadStateAtMatchesDepthLoop(t *testing.T) {
	g := testCity(t)
	const hours = 72
	h := newTestHistory(t, hours)
	var instants []time.Time
	for i := 0; i <= hours; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		instants = append(instants, at.Add(41*time.Minute), at)
	}
	instants = append(instants, t0.Add(-3*time.Hour), t0.Add((hours+5)*time.Hour))
	wet := false
	for _, at := range instants {
		rs := h.RoadStateAt(g, at)
		if want := h.start.Add(time.Duration(h.hourIndex(at)) * time.Hour); !rs.At.Equal(want) {
			t.Fatalf("%v: state stamped %v, want %v", at, rs.At, want)
		}
		g.Segments(func(s roadnet.Segment) {
			want := h.DepthAt(g.SegmentMidpoint(s.ID), at)
			if got := rs.Depth(s.ID); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v, segment %d: depth %v, fresh loop %v", at, s.ID, got, want)
			}
			wet = wet || want > 0
		})
	}
	if !wet {
		t.Fatal("every depth is zero; the fixture checks nothing")
	}
}

// TestRoadStateAtSharedPerHour: one state per (graph, hour).
func TestRoadStateAtSharedPerHour(t *testing.T) {
	g, other := testCity(t), testCity(t)
	h := newTestHistory(t, 48)
	at := t0.Add(30 * time.Hour)
	rs := h.RoadStateAt(g, at)
	if again := h.RoadStateAt(g, at.Add(59*time.Minute)); again != rs {
		t.Error("two instants in one hour got different states")
	}
	if next := h.RoadStateAt(g, at.Add(time.Hour)); next == rs {
		t.Error("two hours share one state")
	}
	if o := h.RoadStateAt(other, at); o == rs {
		t.Error("two graphs share one state")
	}
	if got := testing.AllocsPerRun(100, func() { h.RoadStateAt(g, at) }); got != 0 {
		t.Errorf("a repeated request allocates %v times, want 0", got)
	}
}

// TestRoadStateAtConcurrent has goroutines request every hour at once,
// in different orders; they must agree on one state per hour. Run under
// -race it also checks the memo's synchronisation.
func TestRoadStateAtConcurrent(t *testing.T) {
	g := testCity(t)
	const hours, workers = 24, 6
	h := newTestHistory(t, hours)
	got := make([][]*RoadState, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*RoadState, hours+1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k <= hours; k++ {
				i := (k + w*(hours+1)/workers) % (hours + 1)
				if w%2 == 1 {
					i = hours - i
				}
				got[w][i] = h.RoadStateAt(g, t0.Add(time.Duration(i)*time.Hour))
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i <= hours; i++ {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("hour %d: goroutines %d and 0 got different states", i, w)
			}
		}
	}
}

// BenchmarkRoadStateAt prices one request on the default city: a hit
// (every window after an hour's first) and a miss (an hour's first
// request, which computes the state).
func BenchmarkRoadStateAt(b *testing.B) {
	city, err := roadnet.GenerateCity(roadnet.DefaultGenConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := city.Graph
	storm := weather.FlorencePreset(t0, downtown)
	m, err := NewModel(storm, flatElev(192), testBBox(), t0, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	h, err := NewHistory(m, 24)
	if err != nil {
		b.Fatal(err)
	}
	at := t0.Add(12 * time.Hour)
	b.Run("hit", func(b *testing.B) {
		h.RoadStateAt(g, at)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.RoadStateAt(g, at)
		}
	})
	b.Run("miss", func(b *testing.B) {
		slot := &h.roadSlots(g)[h.hourIndex(at)]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot.Store(nil)
			h.RoadStateAt(g, at)
		}
	})
}
