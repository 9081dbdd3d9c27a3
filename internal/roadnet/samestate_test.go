package roadnet_test

import (
	"math"
	"testing"
	"time"

	"mobirescue/internal/flood"
	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
	"mobirescue/internal/weather"
)

// surge closes a set of segments over a base model, as a chaos surge
// does. It holds a map, so == on two interfaces holding it panics, and
// Rebind must decide sameness through SameAs alone; id names the road
// state.
type surge struct {
	base   roadnet.CostModel
	closed map[roadnet.SegmentID]bool
	id     int
}

func (c surge) SegmentTime(s roadnet.Segment) (float64, bool) {
	if c.closed[s.ID] {
		return math.Inf(1), false
	}
	return c.base.SegmentTime(s)
}

func (c surge) SameAs(other roadnet.CostModel) bool {
	o, ok := other.(surge)
	return ok && o.id == c.id
}

// freeFlowMap is a map-valued model without SameAs.
type freeFlowMap map[roadnet.SegmentID]bool

func (freeFlowMap) SegmentTime(s roadnet.Segment) (float64, bool) { return s.FreeFlowTime(), true }

// TestRebindKeepsTreesOnlyForTheSameRoadState drives a router through
// the cost models a flood run rebinds to: the hour's *flood.RoadState,
// alone and under sim.RescueCost, and map-valued models like chaos
// surges. Trees are kept only while the road state is provably the same
// — the same hour's state under an equal crawl factor — and every other
// rebind drops them: another hour's state, another crawl factor, a base
// without SameAs, and another map-valued state, whose sameness check
// must not panic.
func TestRebindKeepsTreesOnlyForTheSameRoadState(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	city, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := city.Graph
	start := time.Date(2018, 9, 14, 0, 0, 0, 0, time.UTC)
	model, err := flood.NewModel(weather.FlorencePreset(start, g.BBox().Center()),
		func(geo.Point) float64 { return 150 }, g.BBox(), start, flood.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	h, err := flood.NewHistory(model, 3)
	if err != nil {
		t.Fatal(err)
	}
	hour0 := h.RoadStateAt(g, start)
	hour1 := h.RoadStateAt(g, start.Add(time.Hour))
	closed := map[roadnet.SegmentID]bool{3: true, 11: true}
	rescue := func(base roadnet.CostModel, crawl float64) roadnet.CostModel {
		return sim.RescueCost{Base: base, Crawl: crawl}
	}
	steps := []struct {
		name  string
		model roadnet.CostModel
		keep  bool
	}{
		{"the same hour's state", h.RoadStateAt(g, start.Add(59*time.Minute)), true},
		{"the next hour's state", hour1, false},
		{"back to the first hour", hour0, false},
		{"the hour under a crawl adapter", rescue(hour0, 0.15), false},
		{"the same hour under an equal crawl factor", rescue(h.RoadStateAt(g, start.Add(5*time.Minute)), 0.15), true},
		{"another hour's state", rescue(hour1, 0.15), false},
		{"another crawl factor", rescue(hour1, 0.2), false},
		{"the same hour's state again", rescue(hour1, 0.2), true},
		{"a base without SameAs", rescue(roadnet.FreeFlow{}, 0.2), false},
		{"the same base without SameAs", rescue(roadnet.FreeFlow{}, 0.2), false},
		{"a map-valued base", rescue(surge{base: hour1, closed: closed, id: 1}, 0.2), false},
		{"the same map-valued base", rescue(surge{base: hour1, closed: closed, id: 1}, 0.2), true},
		{"another map-valued base", rescue(surge{base: hour1, closed: closed, id: 2}, 0.2), false},
		{"a bare map-valued state", surge{base: hour1, closed: closed, id: 2}, false},
		{"the same bare map-valued state", surge{base: hour1, closed: closed, id: 2}, true},
		{"a map-valued model without SameAs", freeFlowMap(closed), false},
		{"the same map-valued model without SameAs", freeFlowMap(closed), false},
		{"the hour again after a map-valued one", rescue(hour1, 0.2), false},
	}
	r := roadnet.NewRouter(g, hour0)
	prev := r.CachedTree(city.Depot)
	for _, step := range steps {
		r.Rebind(step.model)
		got := r.CachedTree(city.Depot)
		if kept := got == prev; kept != step.keep {
			t.Fatalf("%s: tree kept = %v, want %v", step.name, kept, step.keep)
		}
		fresh := roadnet.NewRouter(g, step.model).Tree(city.Depot)
		for lm := roadnet.LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
			if a, b := got.TimeTo(lm), fresh.TimeTo(lm); a != b {
				t.Fatalf("%s: landmark %d at %v, a fresh router says %v", step.name, lm, a, b)
			}
		}
		prev = got
	}
}
