package mobility

import (
	"testing"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
)

// smallCity returns a compact 7-region city for fast tests.
func smallCity(t testing.TB) *roadnet.City {
	t.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	city, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// smallConfig scales the default mobility config down for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPeople = 250
	return cfg
}

// fakeDisaster floods a disc around a center during a window and closes a
// set of segments.
type fakeDisaster struct {
	center   geo.Point
	radius   float64
	from, to time.Time
	closed   map[roadnet.SegmentID]bool
}

func (f *fakeDisaster) InFloodZone(p geo.Point, t time.Time) bool {
	if t.Before(f.from) || !t.Before(f.to) {
		return false
	}
	return geo.FastDistance(p, f.center) <= f.radius
}

type fakeCost struct{ closed map[roadnet.SegmentID]bool }

func (c fakeCost) SegmentTime(s roadnet.Segment) (float64, bool) {
	if c.closed[s.ID] {
		return 0, false
	}
	return s.FreeFlowTime(), true
}

func (f *fakeDisaster) CostAt(t time.Time) roadnet.CostModel {
	if t.Before(f.from) || !t.Before(f.to) {
		return roadnet.FreeFlow{}
	}
	return fakeCost{closed: f.closed}
}

// testDisaster floods downtown during the configured disaster window.
func testDisaster(city *roadnet.City, cfg Config) *fakeDisaster {
	return &fakeDisaster{
		center: city.Regions[roadnet.DowntownRegion].Center,
		radius: 2500,
		from:   cfg.DisasterStart,
		to:     cfg.DisasterEnd,
		closed: map[roadnet.SegmentID]bool{},
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"no people", func(c *Config) { c.NumPeople = 0 }},
		{"no days", func(c *Config) { c.Days = 0 }},
		{"zero start", func(c *Config) { c.Start = time.Time{} }},
		{"empty disaster", func(c *Config) { c.DisasterEnd = c.DisasterStart }},
		{"bad sampling", func(c *Config) { c.SampleMax = c.SampleMin - 1 }},
		{"negative noise", func(c *Config) { c.GPSNoise = -1 }},
		{"bad prob", func(c *Config) { c.LeisureTripProb = 1.5 }},
		{"bad delay", func(c *Config) { c.DeliverDelayMax = 0 }},
		{"bad stay", func(c *Config) { c.HospitalStay = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestPhaseOf(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		t    time.Time
		want Phase
	}{
		{cfg.Start, PhaseBefore},
		{cfg.DisasterStart.Add(-time.Second), PhaseBefore},
		{cfg.DisasterStart, PhaseDuring},
		{cfg.DisasterEnd.Add(-time.Second), PhaseDuring},
		{cfg.DisasterEnd, PhaseAfter},
		{cfg.End(), PhaseAfter},
	}
	for _, tt := range tests {
		if got := cfg.PhaseOf(tt.t); got != tt.want {
			t.Errorf("PhaseOf(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	for _, p := range []Phase{PhaseBefore, PhaseDuring, PhaseAfter, Phase(0)} {
		if p.String() == "" {
			t.Errorf("Phase(%d).String empty", p)
		}
	}
}

func TestDayIndex(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		t    time.Time
		want int
	}{
		{cfg.Start, 0},
		{cfg.Start.Add(36 * time.Hour), 1},
		{cfg.Start.Add(-time.Hour), 0},
		{cfg.End().Add(time.Hour), cfg.Days - 1},
	}
	for _, tt := range tests {
		if got := cfg.DayIndex(tt.t); got != tt.want {
			t.Errorf("DayIndex(%v) = %d, want %d", tt.t, got, tt.want)
		}
	}
}

func TestTimelinePositionAt(t *testing.T) {
	home := geo.Point{Lat: 35.2, Lon: -80.8}
	work := geo.Destination(home, 90, 2000)
	t0 := time.Date(2018, 9, 10, 8, 0, 0, 0, time.UTC)
	tl := &timeline{
		home: home,
		episodes: []episode{
			{start: t0, end: t0.Add(time.Hour), fromPos: home, toPos: work, moving: true},
		},
	}
	// Before any episode: at home.
	if pos := tl.positionAt(t0.Add(-time.Hour)); pos != home {
		t.Errorf("pre-episode = %v", pos)
	}
	// Mid-episode: between home and work.
	if d := geo.FastDistance(tl.positionAt(t0.Add(30*time.Minute)), geo.Interpolate(home, work, 0.5)); d > 10 {
		t.Errorf("mid-trip position off by %v m", d)
	}
	// After the episode: at work.
	if pos := tl.positionAt(t0.Add(2 * time.Hour)); pos != work {
		t.Errorf("post-episode = %v", pos)
	}
}
