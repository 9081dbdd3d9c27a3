package weather

import (
	"math"
	"testing"
	"time"

	"mobirescue/internal/geo"
)

var (
	downtown  = geo.Point{Lat: 35.2271, Lon: -80.8431}
	impactT0  = time.Date(2018, 9, 12, 0, 0, 0, 0, time.UTC)
	testStorm = FlorencePreset(impactT0, downtown)
)

func TestCalm(t *testing.T) {
	var c Calm
	if c.PrecipAt(downtown, impactT0) != 0 || c.WindAt(downtown, impactT0) != 0 {
		t.Error("Calm should produce zero weather")
	}
}

func TestHurricaneValidate(t *testing.T) {
	tests := []struct {
		name    string
		mut     func(*Hurricane)
		wantErr bool
	}{
		{"valid", func(*Hurricane) {}, false},
		{"empty window", func(h *Hurricane) { h.End = h.Start }, true},
		{"zero radius", func(h *Hurricane) { h.Radius = 0 }, true},
		{"negative precip", func(h *Hurricane) { h.PeakPrecip = -1 }, true},
		{"negative wind", func(h *Hurricane) { h.PeakWind = -1 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := *FlorencePreset(impactT0, downtown)
			tt.mut(&h)
			if err := h.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestHurricaneZeroOutsideWindow(t *testing.T) {
	before := impactT0.Add(-time.Hour)
	after := testStorm.End.Add(time.Hour)
	for _, tm := range []time.Time{before, after} {
		if got := testStorm.PrecipAt(downtown, tm); got != 0 {
			t.Errorf("PrecipAt(%v) = %v, want 0", tm, got)
		}
		if got := testStorm.WindAt(downtown, tm); got != 0 {
			t.Errorf("WindAt(%v) = %v, want 0", tm, got)
		}
	}
}

func TestHurricanePeaksMidWindow(t *testing.T) {
	mid := impactT0.Add(testStorm.End.Sub(testStorm.Start) / 2)
	edge := impactT0.Add(time.Hour)
	center := testStorm.CenterAt(mid)
	if p1, p2 := testStorm.PrecipAt(center, mid), testStorm.PrecipAt(center, edge); p1 <= p2 {
		t.Errorf("mid-window precip %v should exceed early precip %v", p1, p2)
	}
	// At the storm center at peak, precipitation approaches PeakPrecip.
	if got := testStorm.PrecipAt(center, mid); math.Abs(got-testStorm.PeakPrecip) > testStorm.PeakPrecip*0.02 {
		t.Errorf("peak precip at center = %v, want ~%v", got, testStorm.PeakPrecip)
	}
}

func TestHurricaneSpatialDecay(t *testing.T) {
	mid := impactT0.Add(36 * time.Hour)
	center := testStorm.CenterAt(mid)
	near := testStorm.PrecipAt(center, mid)
	farPoint := geo.Destination(center, 0, 3*testStorm.Radius)
	far := testStorm.PrecipAt(farPoint, mid)
	if far >= near {
		t.Errorf("precip should decay with distance: near=%v far=%v", near, far)
	}
	if far >= near*0.1 {
		t.Errorf("3 radii out should be <10%% of center: near=%v far=%v", near, far)
	}
	wNear := testStorm.WindAt(center, mid)
	wFar := testStorm.WindAt(farPoint, mid)
	if wFar >= wNear {
		t.Errorf("wind should decay with distance: near=%v far=%v", wNear, wFar)
	}
	// Wind has a heavier tail: the far/near ratio must exceed precip's.
	if wFar/wNear <= far/near {
		t.Error("wind should decay more slowly than precipitation")
	}
}

func TestHurricaneCenterMoves(t *testing.T) {
	c0 := testStorm.CenterAt(impactT0)
	c1 := testStorm.CenterAt(impactT0.Add(24 * time.Hour))
	d := geo.Haversine(c0, c1)
	want := testStorm.TrackSpeed * 24 * 3600
	if math.Abs(d-want) > want*0.01+1 {
		t.Errorf("center moved %v m in 24 h, want ~%v", d, want)
	}
	// Clamped outside the window.
	if testStorm.CenterAt(impactT0.Add(-time.Hour)) != testStorm.CenterAt(impactT0) {
		t.Error("center should clamp before the window")
	}
}

type constField struct{ precip, wind float64 }

func (c constField) PrecipAt(geo.Point, time.Time) float64 { return c.precip }
func (c constField) WindAt(geo.Point, time.Time) float64   { return c.wind }

func TestFactorsAt(t *testing.T) {
	f := constField{precip: 12, wind: 34}
	elev := func(p geo.Point) float64 { return 222 }
	got := FactorsAt(f, elev, downtown, impactT0)
	want := Factors{Precip: 12, Wind: 34, Altitude: 222}
	if got != want {
		t.Errorf("FactorsAt = %+v, want %+v", got, want)
	}
	vec := got.Vector()
	if len(vec) != 3 || vec[0] != 12 || vec[1] != 34 || vec[2] != 222 {
		t.Errorf("Vector = %v", vec)
	}
	// nil elevation falls back to zero altitude.
	if got := FactorsAt(f, nil, downtown, impactT0); got.Altitude != 0 {
		t.Errorf("nil elev altitude = %v", got.Altitude)
	}
}

func TestPresetsDiffer(t *testing.T) {
	fl := FlorencePreset(impactT0, downtown)
	mi := MichaelPreset(impactT0, downtown)
	if fl.Name == mi.Name {
		t.Error("presets should be distinguishable")
	}
	if fl.End.Sub(fl.Start) == mi.End.Sub(mi.Start) && fl.PeakPrecip == mi.PeakPrecip {
		t.Error("presets should differ in duration or intensity")
	}
	for _, h := range []*Hurricane{fl, mi} {
		if err := h.Validate(); err != nil {
			t.Errorf("%s invalid: %v", h.Name, err)
		}
	}
}

func TestFlorenceHitsLowRegionsHarder(t *testing.T) {
	// The storm is calibrated so the east/south-east (where the generator
	// places low-altitude R2) gets more rain than the north-west (R1).
	r2ish := geo.Destination(downtown, 90, 6000)
	r1ish := geo.Destination(downtown, 330, 6000)
	meanPrecip := func(p geo.Point) float64 {
		sum, n := 0.0, 0
		for at := testStorm.Start; at.Before(testStorm.End); at = at.Add(time.Hour) {
			sum += testStorm.PrecipAt(p, at)
			n++
		}
		return sum / float64(n)
	}
	if east, nw := meanPrecip(r2ish), meanPrecip(r1ish); east <= nw {
		t.Errorf("east precip %v should exceed northwest %v", east, nw)
	}
}
