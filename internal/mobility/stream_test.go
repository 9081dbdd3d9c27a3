package mobility

import (
	"testing"
	"time"

	"mobirescue/internal/roadnet"
)

func streamTestCity(t *testing.T) *roadnet.City {
	t.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	city, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func streamTestConfig(n int, seed int64) Config {
	cfg := DefaultConfig()
	cfg.NumPeople = n
	cfg.Seed = seed
	return cfg
}

// TestStreamerDeterministic pins the seeded-generator contract: two
// Streamers built from the same config agree on every sampled position,
// and a different seed produces a different population.
func TestStreamerDeterministic(t *testing.T) {
	city := streamTestCity(t)
	cfg := streamTestConfig(500, 7)
	a, err := NewStreamer(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStreamer(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Time{
		cfg.Start.Add(7 * time.Hour),
		cfg.Start.Add(30 * time.Hour),
		cfg.DisasterStart.Add(6 * time.Hour),
		cfg.DisasterEnd.Add(40 * time.Hour),
	}
	for i := 0; i < a.NumPeople(); i++ {
		for _, at := range times {
			if a.PosAt(i, at.UnixNano()) != b.PosAt(i, at.UnixNano()) {
				t.Fatalf("person %d at %v: same seed produced different positions", i, at)
			}
		}
	}

	other, err := NewStreamer(city, streamTestConfig(500, 8))
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < a.NumPeople(); i++ {
		if a.home[i] != other.home[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical home anchors")
	}
}

// TestStreamerSourceContract checks the pop.Source surface: dense IDs,
// IndexOf round-trip, out-of-range misses, and pre-window clamping to
// the home anchor.
func TestStreamerSourceContract(t *testing.T) {
	city := streamTestCity(t)
	cfg := streamTestConfig(100, 3)
	s, err := NewStreamer(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPeople() != 100 {
		t.Fatalf("NumPeople = %d, want 100", s.NumPeople())
	}
	for i := 0; i < s.NumPeople(); i++ {
		if s.ID(i) != i || s.IndexOf(i) != i {
			t.Fatalf("person %d: ID/IndexOf not dense", i)
		}
	}
	if s.IndexOf(-1) != -1 || s.IndexOf(100) != -1 {
		t.Fatal("IndexOf accepted an out-of-range ID")
	}
	before := cfg.Start.Add(-time.Hour)
	for i := 0; i < s.NumPeople(); i++ {
		if s.PosAt(i, before.UnixNano()) != s.home[i] {
			t.Fatalf("person %d: pre-window position is not the home anchor", i)
		}
	}
}

// TestStreamerShelterDuringDisaster pins the phase schedule: everyone
// sits at their home anchor while the disaster is active, and at least
// some people are away from home on a normal weekday morning.
func TestStreamerShelterDuringDisaster(t *testing.T) {
	city := streamTestCity(t)
	cfg := streamTestConfig(300, 11)
	s, err := NewStreamer(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	during := cfg.DisasterStart.Add(26 * time.Hour)
	for i := 0; i < s.NumPeople(); i++ {
		if s.PosAt(i, during.UnixNano()) != s.home[i] {
			t.Fatalf("person %d: not sheltering at home during the disaster", i)
		}
	}
	workday := cfg.Start.Add(11 * time.Hour) // pre-disaster late morning
	away := 0
	for i := 0; i < s.NumPeople(); i++ {
		if s.PosAt(i, workday.UnixNano()) != s.home[i] {
			away++
		}
	}
	if away == 0 {
		t.Fatal("nobody left home on a normal weekday")
	}
}

// TestStreamerRegionCoverage verifies the region-weighted tiers cover
// every populated district rather than collapsing onto one corner.
func TestStreamerRegionCoverage(t *testing.T) {
	city := streamTestCity(t)
	s, err := NewStreamer(city, streamTestConfig(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	counts := s.HomeRegionCounts(city)
	populated := 0
	for r := 1; r < len(counts); r++ {
		if counts[r] > 0 {
			populated++
		}
	}
	if populated < city.NumRegions()-1 {
		t.Fatalf("population covers %d of %d regions", populated, city.NumRegions())
	}
}
