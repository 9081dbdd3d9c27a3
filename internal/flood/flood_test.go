package flood

import (
	"math"
	"reflect"
	"testing"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/weather"
)

var (
	downtown = geo.Point{Lat: 35.2271, Lon: -80.8431}
	t0       = time.Date(2018, 9, 12, 0, 0, 0, 0, time.UTC)
)

// flatElev returns a constant-altitude terrain.
func flatElev(alt float64) func(geo.Point) float64 {
	return func(geo.Point) float64 { return alt }
}

// constRain is a uniform weather field.
type constRain struct{ rate float64 }

func (c constRain) PrecipAt(geo.Point, time.Time) float64 { return c.rate }
func (c constRain) WindAt(geo.Point, time.Time) float64   { return 0 }

func testBBox() geo.BBox {
	return geo.NewBBox(downtown).Pad(15000)
}

func newTestModel(t *testing.T, field weather.Field, elev func(geo.Point) float64) *Model {
	t.Helper()
	m, err := NewModel(field, elev, testBBox(), t0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Params)
	}{
		{"zero alt scale", func(p *Params) { p.AltScale = 0 }},
		{"negative runoff", func(p *Params) { p.Runoff = -1 }},
		{"one cell", func(p *Params) { p.GridCells = 1 }},
		{"zero step", func(p *Params) { p.Step = 0 }},
		{"zero zone depth", func(p *Params) { p.ZoneDepth = 0 }},
		{"zero close depth", func(p *Params) { p.CloseDepth = 0 }},
		{"bad speed factor", func(p *Params) { p.MinSpeedFactor = 0 }},
		{"speed factor above one", func(p *Params) { p.MinSpeedFactor = 1.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mut(&p)
			if err := p.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestNewModelRequiresFieldAndElev(t *testing.T) {
	if _, err := NewModel(nil, flatElev(200), testBBox(), t0, DefaultParams()); err == nil {
		t.Error("nil field should error")
	}
	if _, err := NewModel(constRain{1}, nil, testBBox(), t0, DefaultParams()); err == nil {
		t.Error("nil elev should error")
	}
}

func TestDryWithoutRain(t *testing.T) {
	h := historyOf(t, newTestModel(t, weather.Calm{}, flatElev(190)), 24)
	at := t0.Add(24 * time.Hour)
	if d := h.DepthAt(downtown, at); d != 0 {
		t.Errorf("depth without rain = %v", d)
	}
	if h.InFloodZone(downtown, at) {
		t.Error("flood zone without rain")
	}
}

func TestDepthGrowsWithRainAndLowGround(t *testing.T) {
	depth := func(alt float64) float64 {
		h := historyOf(t, newTestModel(t, constRain{50}, flatElev(alt)), 12)
		return h.DepthAt(downtown, t0.Add(12*time.Hour))
	}
	dLow, dHigh, dDry := depth(190), depth(230), depth(240) // 240 m: above RefAltitude
	if !(dLow > dHigh) {
		t.Errorf("low ground should flood deeper: low=%v high=%v", dLow, dHigh)
	}
	if dDry != 0 {
		t.Errorf("ground above RefAltitude should stay dry, got %v", dDry)
	}
	if dLow <= 0 {
		t.Errorf("12 h of 50 mm/h on low ground should flood, got %v", dLow)
	}
}

func TestDepthMonotoneInTimeDuringRain(t *testing.T) {
	h := historyOf(t, newTestModel(t, constRain{30}, flatElev(195)), 10)
	var prev float64
	for hour := 1; hour <= 10; hour++ {
		d := h.DepthAt(downtown, t0.Add(time.Duration(hour)*time.Hour))
		if d < prev {
			t.Fatalf("depth decreased during steady rain at hour %d: %v -> %v", hour, prev, d)
		}
		prev = d
	}
}

func TestDrainageAfterStorm(t *testing.T) {
	storm := weather.FlorencePreset(t0, downtown)
	drained := storm.End.Add(5 * 24 * time.Hour)
	h := historyOf(t, newTestModel(t, storm, flatElev(192)), int(drained.Sub(t0)/time.Hour))
	peak := h.DepthAt(downtown, storm.End)
	if peak <= 0 {
		t.Fatal("storm produced no flooding at downtown")
	}
	after := h.DepthAt(downtown, drained)
	if after >= peak {
		t.Errorf("flood should drain after the storm: peak=%v after=%v", peak, after)
	}
	if after >= peak*0.5 {
		t.Errorf("five days of drainage should halve the depth: peak=%v after=%v", peak, after)
	}
}

func TestAdvanceToNeverRewinds(t *testing.T) {
	m := newTestModel(t, constRain{30}, flatElev(195))
	m.AdvanceTo(t0.Add(2 * time.Hour))
	accum := append([]float64(nil), m.accum...)
	m.AdvanceTo(t0.Add(time.Hour)) // earlier: no-op
	if !reflect.DeepEqual(m.accum, accum) {
		t.Error("rewinding changed state")
	}
	if !m.Now().Equal(t0.Add(2 * time.Hour)) {
		t.Errorf("Now = %v", m.Now())
	}
}

func TestInFloodZoneThreshold(t *testing.T) {
	h := historyOf(t, newTestModel(t, constRain{80}, flatElev(190)), 24)
	if h.InFloodZone(downtown, t0) {
		t.Error("flood zone before any rain")
	}
	at := t0.Add(24 * time.Hour)
	if !h.InFloodZone(downtown, at) {
		t.Errorf("24 h of heavy rain on low ground should be a flood zone (depth=%v)", h.DepthAt(downtown, at))
	}
}

// buildTestGraph returns a 2-node graph whose single road sits at the
// given altitude.
func buildTestGraph(t *testing.T, alt float64) (*roadnet.Graph, roadnet.SegmentID) {
	t.Helper()
	g := roadnet.NewGraph()
	a := g.AddLandmark(downtown, alt, 3)
	b := g.AddLandmark(geo.Destination(downtown, 90, 800), alt, 3)
	ab, _, err := g.AddRoad(a, b, 0, 13, roadnet.ClassCollector)
	if err != nil {
		t.Fatal(err)
	}
	return g, ab
}

// historyOf records hours of m's flood timeline from t0, the source of
// the depth, flood-zone and road operability queries under test.
func historyOf(t *testing.T, m *Model, hours int) *History {
	t.Helper()
	h, err := NewHistory(m, hours)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestRoadStateClosesFloodedRoads(t *testing.T) {
	g, seg := buildTestGraph(t, 190)
	h := historyOf(t, newTestModel(t, constRain{100}, flatElev(190)), 48)
	// Dry state: open at full speed.
	rs := h.RoadStateAt(g, t0)
	if f := rs.SpeedFactor(seg); f != 1 {
		t.Errorf("dry speed factor = %v", f)
	}
	w, open := rs.SegmentTime(g.Segment(seg))
	if !open || math.Abs(w-g.Segment(seg).FreeFlowTime()) > 1e-9 {
		t.Errorf("dry SegmentTime = %v, %v", w, open)
	}

	// Flood it hard.
	rs = h.RoadStateAt(g, t0.Add(48*time.Hour))
	if _, open := rs.SegmentTime(g.Segment(seg)); open {
		t.Fatalf("deeply flooded road still open (depth=%v)", rs.Depth(seg))
	}
	if f := rs.SpeedFactor(seg); f != 0 {
		t.Errorf("closed road speed factor = %v, want 0", f)
	}
}

func TestRoadStatePartialSlowdown(t *testing.T) {
	g, seg := buildTestGraph(t, 200)
	m := newTestModel(t, constRain{20}, flatElev(200))
	hist := historyOf(t, m, 72)
	// Advance until the road is wet but not closed.
	for h := 1; h <= 72; h++ {
		rs := hist.RoadStateAt(g, t0.Add(time.Duration(h)*time.Hour))
		d := rs.Depth(seg)
		if d > 0 && rs.SpeedFactor(seg) > 0 {
			f := rs.SpeedFactor(seg)
			if f >= 1 || f < m.Params().MinSpeedFactor {
				t.Errorf("wet-road speed factor out of range: %v", f)
			}
			w, open := rs.SegmentTime(g.Segment(seg))
			if !open || w <= g.Segment(seg).FreeFlowTime() {
				t.Errorf("wet road should be slower than free flow: %v", w)
			}
			return
		}
		if rs.SpeedFactor(seg) == 0 {
			t.Skipf("road closed before a partial state was observed")
		}
	}
	t.Skip("rain too light to wet the road in 72 h")
}

func TestRoadStateOutOfRange(t *testing.T) {
	g, _ := buildTestGraph(t, 200)
	h := historyOf(t, newTestModel(t, weather.Calm{}, flatElev(200)), 1)
	rs := h.RoadStateAt(g, t0)
	if d := rs.Depth(roadnet.SegmentID(999)); d != 0 {
		t.Errorf("out-of-range depth = %v", d)
	}
	if f := rs.SpeedFactor(roadnet.SegmentID(999)); f != 1 {
		t.Errorf("out-of-range segments default to open at full speed, got factor %v", f)
	}
}

func TestFloodZonesFollowStormGeography(t *testing.T) {
	storm := weather.FlorencePreset(t0, downtown)
	// Terrain: altitude rises to the northwest, as in the generated city
	// (R1 high, downtown/R2 low).
	elev := func(p geo.Point) float64 {
		d := geo.FastDistance(p, geo.Destination(downtown, 330, 9000))
		return 235 - math.Min(45, d/400)
	}
	h := historyOf(t, newTestModel(t, storm, elev), 60)
	at := t0.Add(60 * time.Hour)
	lowPoint := geo.Destination(downtown, 120, 4000) // toward the track, low ground
	highPoint := geo.Destination(downtown, 330, 8500)
	if low, high := h.DepthAt(lowPoint, at), h.DepthAt(highPoint, at); low <= high {
		t.Errorf("low ground near the track should flood deeper: low=%v high=%v", low, high)
	}
}

func BenchmarkAdvanceTo(b *testing.B) {
	storm := weather.FlorencePreset(t0, downtown)
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		m, err := NewModel(storm, flatElev(200), testBBox(), t0, p)
		if err != nil {
			b.Fatal(err)
		}
		m.AdvanceTo(t0.Add(24 * time.Hour))
	}
}

func TestPatchinessDeterministicAndBounded(t *testing.T) {
	seen := make(map[float64]bool)
	for cell := 0; cell < 500; cell++ {
		p1 := patchiness(cell)
		p2 := patchiness(cell)
		if p1 != p2 {
			t.Fatalf("patchiness(%d) not deterministic", cell)
		}
		if p1 < 0.55 || p1 > 1.45 {
			t.Fatalf("patchiness(%d) = %v out of [0.55, 1.45]", cell, p1)
		}
		seen[p1] = true
	}
	if len(seen) < 100 {
		t.Errorf("patchiness too coarse: %d distinct values over 500 cells", len(seen))
	}
}

func TestFloodIsPatchy(t *testing.T) {
	// Uniform rain on uniform terrain must still produce spatial variety
	// in depth (micro-topography), so some corridors survive.
	h := historyOf(t, newTestModel(t, constRain{60}, flatElev(195)), 24)
	at := t0.Add(24 * time.Hour)
	center := downtown
	depths := make(map[string]float64)
	var min, max float64
	first := true
	for i := -5; i <= 5; i++ {
		for j := -5; j <= 5; j++ {
			p := geo.Destination(geo.Destination(center, 0, float64(i)*1200), 90, float64(j)*1200)
			d := h.DepthAt(p, at)
			depths[p.String()] = d
			if first || d < min {
				min = d
			}
			if first || d > max {
				max = d
			}
			first = false
		}
	}
	if max <= 0 {
		t.Fatal("no flooding produced")
	}
	if min >= max*0.8 {
		t.Errorf("flood too uniform: min=%v max=%v", min, max)
	}
}
