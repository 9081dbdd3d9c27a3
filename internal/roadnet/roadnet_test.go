package roadnet

import (
	"math"
	"testing"

	"mobirescue/internal/geo"
)

// buildLine builds a simple chain a -> b -> c -> ... with given spacing in
// meters along a bearing, returning the graph and landmark IDs.
func buildLine(t *testing.T, n int, spacing float64) (*Graph, []LandmarkID) {
	t.Helper()
	g := NewGraph()
	start := geo.Point{Lat: 35.2, Lon: -80.8}
	ids := make([]LandmarkID, n)
	for i := 0; i < n; i++ {
		p := geo.Destination(start, 90, float64(i)*spacing)
		ids[i] = g.AddLandmark(p, 200, 1)
	}
	for i := 0; i+1 < n; i++ {
		if _, _, err := g.AddRoad(ids[i], ids[i+1], 0, 10, ClassCollector); err != nil {
			t.Fatalf("AddRoad: %v", err)
		}
	}
	return g, ids
}

func TestAddSegmentComputesLength(t *testing.T) {
	g, ids := buildLine(t, 2, 1000)
	seg := g.Segment(g.Out(ids[0])[0])
	if math.Abs(seg.Length-1000) > 2 {
		t.Errorf("Length = %v, want ~1000", seg.Length)
	}
	if seg.SpeedLimit != 10 {
		t.Errorf("SpeedLimit = %v", seg.SpeedLimit)
	}
	if got := seg.FreeFlowTime(); math.Abs(got-100) > 0.5 {
		t.Errorf("FreeFlowTime = %v, want ~100", got)
	}
}

func TestAddSegmentErrors(t *testing.T) {
	g := NewGraph()
	a := g.AddLandmark(geo.Point{Lat: 35, Lon: -80}, 0, 1)
	tests := []struct {
		name     string
		from, to LandmarkID
	}{
		{"invalid from", -1, a},
		{"invalid to", a, 99},
		{"self loop", a, a},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddSegment(tt.from, tt.to, 100, 10, ClassResidential); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestDefaultSpeedApplied(t *testing.T) {
	g := NewGraph()
	a := g.AddLandmark(geo.Point{Lat: 35, Lon: -80}, 0, 1)
	b := g.AddLandmark(geo.Point{Lat: 35.01, Lon: -80}, 0, 1)
	id, err := g.AddSegment(a, b, 0, 0, ClassHighway)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Segment(id).SpeedLimit; got != ClassHighway.DefaultSpeed() {
		t.Errorf("SpeedLimit = %v, want class default %v", got, ClassHighway.DefaultSpeed())
	}
}

func TestRoadClassStrings(t *testing.T) {
	classes := []RoadClass{ClassUnknown, ClassHighway, ClassArterial, ClassCollector, ClassResidential}
	seen := make(map[string]bool)
	for _, c := range classes {
		s := c.String()
		if s == "" || seen[s] {
			t.Errorf("class %d has bad or duplicate string %q", c, s)
		}
		seen[s] = true
		if c != ClassUnknown && c.DefaultSpeed() <= 0 {
			t.Errorf("class %v has non-positive default speed", c)
		}
	}
	// Faster classes must have higher default speeds.
	if ClassHighway.DefaultSpeed() <= ClassArterial.DefaultSpeed() ||
		ClassArterial.DefaultSpeed() <= ClassCollector.DefaultSpeed() ||
		ClassCollector.DefaultSpeed() <= ClassResidential.DefaultSpeed() {
		t.Error("default speeds are not ordered by class")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g, _ := buildLine(t, 3, 500)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g.segments[0].Length = -1
	if err := g.Validate(); err == nil {
		t.Error("negative length not caught")
	}
	g.segments[0].Length = 500
	g.segments[0].SpeedLimit = 0
	if err := g.Validate(); err == nil {
		t.Error("zero speed not caught")
	}
}

func TestAdjacency(t *testing.T) {
	g, ids := buildLine(t, 3, 500)
	// Middle node has 2 out (left, right) and 2 in.
	if got := len(g.Out(ids[1])); got != 2 {
		t.Errorf("middle out-degree = %d, want 2", got)
	}
	if got := len(g.In(ids[1])); got != 2 {
		t.Errorf("middle in-degree = %d, want 2", got)
	}
	if got := len(g.Out(ids[0])); got != 1 {
		t.Errorf("end out-degree = %d, want 1", got)
	}
}

func TestNearestLandmarkAndSegment(t *testing.T) {
	g, ids := buildLine(t, 5, 1000)
	probe := g.Landmark(ids[3]).Pos
	if got := g.NearestLandmark(probe); got != ids[3] {
		t.Errorf("NearestLandmark = %v, want %v", got, ids[3])
	}
	empty := NewGraph()
	if got := empty.NearestLandmark(probe); got != NoLandmark {
		t.Errorf("empty NearestLandmark = %v", got)
	}
	if got := empty.NearestSegment(probe); got != NoSegment {
		t.Errorf("empty NearestSegment = %v", got)
	}
	// Nearest segment to a point just past landmark 2 heading east should
	// touch landmark 2 or 3.
	sid := g.NearestSegment(geo.Destination(g.Landmark(ids[2]).Pos, 90, 400))
	s := g.Segment(sid)
	if s.From != ids[2] && s.To != ids[2] && s.From != ids[3] && s.To != ids[3] {
		t.Errorf("NearestSegment = %+v, want one touching landmarks 2 or 3", s)
	}
}

func TestPositionPoint(t *testing.T) {
	g, ids := buildLine(t, 2, 1000)
	sid := g.Out(ids[0])[0]
	seg := g.Segment(sid)
	mid := g.Point(Position{Seg: sid, Offset: seg.Length / 2})
	wantMid := geo.Interpolate(g.Landmark(ids[0]).Pos, g.Landmark(ids[1]).Pos, 0.5)
	if geo.Haversine(mid, wantMid) > 1 {
		t.Errorf("midpoint = %v, want %v", mid, wantMid)
	}
	start := g.Point(Position{Seg: sid, Offset: 0})
	if geo.Haversine(start, g.Landmark(ids[0]).Pos) > 0.5 {
		t.Errorf("offset 0 should be at the From landmark")
	}
}

func TestAtLandmark(t *testing.T) {
	g, ids := buildLine(t, 2, 500)
	pos, err := g.AtLandmark(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.Segment(pos.Seg).From != ids[0] || pos.Offset != 0 {
		t.Errorf("AtLandmark = %+v", pos)
	}
	isolated := NewGraph()
	lone := isolated.AddLandmark(geo.Point{Lat: 35, Lon: -80}, 0, 1)
	if _, err := isolated.AtLandmark(lone); err == nil {
		t.Error("isolated landmark should error")
	}
}

func TestSegmentIDsByRegionAndRegions(t *testing.T) {
	g := NewGraph()
	a := g.AddLandmark(geo.Point{Lat: 35, Lon: -80}, 0, 2)
	b := g.AddLandmark(geo.Point{Lat: 35.01, Lon: -80}, 0, 2)
	c := g.AddLandmark(geo.Point{Lat: 35.02, Lon: -80}, 0, 5)
	if _, _, err := g.AddRoad(a, b, 0, 10, ClassCollector); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.AddRoad(b, c, 0, 10, ClassCollector); err != nil {
		t.Fatal(err)
	}
	byRegion := g.SegmentIDsByRegion()
	if len(byRegion) != 1 && len(byRegion) != 2 {
		t.Fatalf("SegmentIDsByRegion = %v", byRegion)
	}
	total := 0
	for _, segs := range byRegion {
		total += len(segs)
	}
	if total != g.NumSegments() {
		t.Errorf("grouped %d segments, graph has %d", total, g.NumSegments())
	}
}

func TestBBoxCoversAllLandmarks(t *testing.T) {
	g, _ := buildLine(t, 4, 800)
	box := g.BBox()
	g.Landmarks(func(lm Landmark) {
		if !box.Contains(lm.Pos) {
			t.Errorf("bbox misses landmark %v", lm.Pos)
		}
	})
}

func TestIterators(t *testing.T) {
	g, _ := buildLine(t, 3, 500)
	var nL, nS int
	g.Landmarks(func(Landmark) { nL++ })
	g.Segments(func(Segment) { nS++ })
	if nL != g.NumLandmarks() || nS != g.NumSegments() {
		t.Errorf("iterated %d/%d, want %d/%d", nL, nS, g.NumLandmarks(), g.NumSegments())
	}
}
