package flood

import (
	"reflect"
	"testing"
	"time"

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
