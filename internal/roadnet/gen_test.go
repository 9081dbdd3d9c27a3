package roadnet

import (
	"math"
	"testing"

	"mobirescue/internal/geo"
)

func mustCity(t testing.TB, cfg GenConfig) *City {
	t.Helper()
	city, err := GenerateCity(cfg)
	if err != nil {
		t.Fatalf("GenerateCity: %v", err)
	}
	return city
}

func TestGenerateCityBasics(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	if city.NumRegions() != 7 {
		t.Fatalf("NumRegions = %d, want 7", city.NumRegions())
	}
	if got := city.Graph.NumLandmarks(); got != 7*8*8 {
		t.Errorf("landmarks = %d, want %d", got, 7*8*8)
	}
	if city.Graph.NumSegments() == 0 {
		t.Fatal("no segments generated")
	}
	if err := city.Graph.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if len(city.Hospitals) != 7 {
		t.Errorf("hospitals = %d, want 7", len(city.Hospitals))
	}
	if city.Depot < 0 || int(city.Depot) >= city.Graph.NumLandmarks() {
		t.Errorf("depot invalid: %d", city.Depot)
	}
	// Depot must be downtown.
	if got := city.Graph.Landmark(city.Depot).Region; got != DowntownRegion {
		t.Errorf("depot region = %d, want %d", got, DowntownRegion)
	}
}

func TestGenerateCityDeterministic(t *testing.T) {
	a := mustCity(t, DefaultGenConfig())
	b := mustCity(t, DefaultGenConfig())
	if a.Graph.NumLandmarks() != b.Graph.NumLandmarks() || a.Graph.NumSegments() != b.Graph.NumSegments() {
		t.Fatal("same seed produced different sizes")
	}
	for i := 0; i < a.Graph.NumLandmarks(); i++ {
		la, lb := a.Graph.Landmark(LandmarkID(i)), b.Graph.Landmark(LandmarkID(i))
		if la.Pos != lb.Pos || la.Altitude != lb.Altitude || la.Region != lb.Region {
			t.Fatalf("landmark %d differs: %+v vs %+v", i, la, lb)
		}
	}
	cfg := DefaultGenConfig()
	cfg.Seed = 99
	c := mustCity(t, cfg)
	same := true
	for i := 0; i < a.Graph.NumLandmarks() && i < c.Graph.NumLandmarks(); i++ {
		if a.Graph.Landmark(LandmarkID(i)).Pos != c.Graph.Landmark(LandmarkID(i)).Pos {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical landmark positions")
	}
}

func TestGenerateCityFullyConnected(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	r := NewRouter(city.Graph, nil)
	tree := r.Tree(city.Depot)
	unreachable := 0
	city.Graph.Landmarks(func(lm Landmark) {
		if !tree.Reachable(lm.ID) {
			unreachable++
		}
	})
	if unreachable > 0 {
		t.Errorf("%d landmarks unreachable from depot", unreachable)
	}
}

func TestGenerateCityRegionsAssigned(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	counts := make(map[int]int)
	city.Graph.Landmarks(func(lm Landmark) {
		if lm.Region < 1 || lm.Region > 7 {
			t.Fatalf("landmark %d has region %d", lm.ID, lm.Region)
		}
		counts[lm.Region]++
	})
	for r := 1; r <= 7; r++ {
		if counts[r] != 64 {
			t.Errorf("region %d has %d landmarks, want 64", r, counts[r])
		}
	}
	segRegions := city.Graph.SegmentIDsByRegion()
	if len(segRegions) != 7 {
		t.Errorf("segment regions = %v", segRegions)
	}
}

func TestGenerateCityAltitudeProfile(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	mean := make(map[int]float64)
	n := make(map[int]int)
	city.Graph.Landmarks(func(lm Landmark) {
		mean[lm.Region] += lm.Altitude
		n[lm.Region]++
	})
	for r := 1; r <= 7; r++ {
		mean[r] /= float64(n[r])
	}
	// Paper: R1 highest (232.9), downtown R3 lowest (190).
	if !(mean[1] > mean[3]) {
		t.Errorf("R1 altitude (%v) should exceed R3 (%v)", mean[1], mean[3])
	}
	if !(mean[1] > mean[2]) {
		t.Errorf("R1 altitude (%v) should exceed R2 (%v)", mean[1], mean[2])
	}
	for r := 1; r <= 7; r++ {
		if math.Abs(mean[r]-regionBaseAltitudes[r]) > 25 {
			t.Errorf("region %d mean altitude %v too far from base %v", r, mean[r], regionBaseAltitudes[r])
		}
	}
}

func TestGenerateCityRegionAt(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	for r := 1; r <= 7; r++ {
		if got := city.RegionAt(city.Regions[r].Center); got != r {
			t.Errorf("RegionAt(center of %d) = %d", r, got)
		}
	}
}

func TestHospitalNearest(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	for r := 1; r <= 7; r++ {
		h := city.HospitalNearest(city.Regions[r].Center)
		if h == NoLandmark {
			t.Fatalf("no hospital near region %d", r)
		}
		if got := city.Graph.Landmark(h).Region; got != r {
			t.Errorf("nearest hospital to region %d center is in region %d", r, got)
		}
	}
	empty := &City{Graph: NewGraph(), Regions: make([]RegionInfo, 8)}
	if got := empty.HospitalNearest(geo.Point{}); got != NoLandmark {
		t.Errorf("city without hospitals returned %v", got)
	}
}

func TestGenerateCityDowntownDenser(t *testing.T) {
	city := mustCity(t, DefaultGenConfig())
	// Downtown grid spacing is scaled by 0.65, so mean segment length in
	// region 3 should be clearly below region 1's.
	meanLen := func(region int) float64 {
		var sum float64
		var n int
		city.Graph.Segments(func(s Segment) {
			if s.Region == region && s.Class != ClassArterial {
				sum += s.Length
				n++
			}
		})
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	if downtown, suburb := meanLen(3), meanLen(1); downtown >= suburb {
		t.Errorf("downtown mean segment length %v should be below suburb %v", downtown, suburb)
	}
}

func TestGenerateCityConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*GenConfig)
	}{
		{"tiny grid", func(c *GenConfig) { c.GridRows = 1 }},
		{"zero spacing", func(c *GenConfig) { c.Spacing = 0 }},
		{"zero radius", func(c *GenConfig) { c.RegionRadius = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultGenConfig()
			tt.mut(&cfg)
			if _, err := GenerateCity(cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestGenerateCitySmall(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 3, 3
	city := mustCity(t, cfg)
	if got := city.Graph.NumLandmarks(); got != 7*9 {
		t.Errorf("landmarks = %d, want %d", got, 7*9)
	}
	tree := NewRouter(city.Graph, nil).Tree(city.Depot)
	city.Graph.Landmarks(func(lm Landmark) {
		if !tree.Reachable(lm.ID) {
			t.Errorf("landmark %d unreachable in small city", lm.ID)
		}
	})
}
