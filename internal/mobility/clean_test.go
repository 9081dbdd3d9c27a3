package mobility

import (
	"testing"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
)

func TestCleanFilters(t *testing.T) {
	base := time.Date(2018, 9, 10, 8, 0, 0, 0, time.UTC)
	in := geo.Point{Lat: 35.22, Lon: -80.84}
	box := geo.NewBBox(in).Pad(5000)
	points := []GPSPoint{
		{PersonID: 1, Time: base, Pos: in},
		{PersonID: 1, Time: base.Add(time.Minute), Pos: in},                                  // redundant: same spot, <dedup
		{PersonID: 1, Time: base.Add(2 * time.Hour), Pos: geo.Point{Lat: 99, Lon: 0}},        // invalid
		{PersonID: 1, Time: base.Add(3 * time.Hour), Pos: geo.Destination(in, 0, 100000)},    // out of bbox
		{PersonID: 1, Time: base.Add(-time.Hour), Pos: geo.Destination(in, 90, 500)},         // out of order (sorted to front, kept)
		{PersonID: 1, Time: base.Add(4 * time.Hour), Pos: geo.Destination(in, 90, 1000)},     // kept
		{PersonID: 2, Time: base, Pos: in},                                                   // kept (new person)
		{PersonID: 2, Time: base, Pos: in},                                                   // duplicate timestamp
		{PersonID: 2, Time: base.Add(30 * time.Minute), Pos: geo.Destination(in, 180, 2000)}, // kept
	}
	got := Clean(points, box, 10*time.Minute)
	// Person 1: the -1h point sorts first and is kept; base kept; +4h kept.
	// Person 2: base kept, +30m kept.
	if len(got) != 5 {
		t.Fatalf("Clean kept %d points, want 5: %+v", len(got), got)
	}
	// Per-person monotone timestamps.
	for i := 1; i < len(got); i++ {
		if got[i].PersonID == got[i-1].PersonID && !got[i].Time.After(got[i-1].Time) {
			t.Errorf("non-monotone timestamps after Clean at %d", i)
		}
	}
}

func TestCleanEmpty(t *testing.T) {
	box := geo.NewBBox(geo.Point{Lat: 35, Lon: -80}).Pad(1000)
	if got := Clean(nil, box, time.Minute); len(got) != 0 {
		t.Errorf("Clean(nil) = %v", got)
	}
}

func TestLandmarkIndexMatchesLinearScan(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	idx := roadnet.NewSpatialIndex(g)
	probes := []geo.Point{
		city.Regions[1].Center,
		city.Regions[3].Center,
		geo.Destination(city.Regions[3].Center, 45, 900),
		geo.Destination(city.Regions[7].Center, 200, 2500),
	}
	for _, p := range probes {
		want := g.NearestLandmark(p)
		got := idx.NearestLandmark(p)
		// The grid search is approximate only in pathological ties; the
		// distances must match.
		dw := geo.FastDistance(p, g.Landmark(want).Pos)
		dg := geo.FastDistance(p, g.Landmark(got).Pos)
		if dg > dw*1.05+1 {
			t.Errorf("index nearest %v (%.1f m) worse than linear %v (%.1f m)", got, dg, want, dw)
		}
	}
}

func TestDetectDeliveries(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	hosp := city.Hospitals[0]
	hPos := g.Landmark(hosp).Pos
	home := geo.Destination(hPos, 90, 3000)
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	pts := []GPSPoint{
		{PersonID: 1, Time: base, Pos: home},
		{PersonID: 1, Time: base.Add(2 * time.Hour), Pos: home},
		{PersonID: 1, Time: base.Add(4 * time.Hour), Pos: hPos},                          // arrive
		{PersonID: 1, Time: base.Add(6 * time.Hour), Pos: geo.Destination(hPos, 10, 50)}, // still there
		{PersonID: 1, Time: base.Add(8 * time.Hour), Pos: hPos},                          // still there
		{PersonID: 1, Time: base.Add(10 * time.Hour), Pos: home},                         // left
		{PersonID: 2, Time: base, Pos: hPos},                                             // brief visit
		{PersonID: 2, Time: base.Add(30 * time.Minute), Pos: hPos},
		{PersonID: 2, Time: base.Add(time.Hour), Pos: home},
	}
	got := DetectDeliveries(g, city.Hospitals, pts, 300, 2*time.Hour)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1: %+v", len(got), got)
	}
	d := got[0]
	if d.PersonID != 1 || d.Hospital != hosp {
		t.Errorf("delivery = %+v", d)
	}
	if !d.Arrive.Equal(base.Add(4 * time.Hour)) {
		t.Errorf("arrive = %v", d.Arrive)
	}
	if d.PrevPos != home || !d.PrevTime.Equal(base.Add(2*time.Hour)) {
		t.Errorf("prev = %v at %v", d.PrevPos, d.PrevTime)
	}
}

func TestDetectDeliveriesEdgeCases(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	if got := DetectDeliveries(g, nil, []GPSPoint{{}}, 300, time.Hour); got != nil {
		t.Errorf("no hospitals should detect nothing, got %v", got)
	}
	if got := DetectDeliveries(g, city.Hospitals, nil, 300, time.Hour); got != nil {
		t.Errorf("no points should detect nothing, got %v", got)
	}
	// Trace starting at the hospital has no previous position.
	hPos := g.Landmark(city.Hospitals[0]).Pos
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	pts := []GPSPoint{
		{PersonID: 3, Time: base, Pos: hPos},
		{PersonID: 3, Time: base.Add(3 * time.Hour), Pos: hPos},
	}
	got := DetectDeliveries(g, city.Hospitals, pts, 300, 2*time.Hour)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if !got[0].PrevTime.IsZero() {
		t.Errorf("PrevTime should be zero for a trace starting at the hospital")
	}
}

func TestLabelRescued(t *testing.T) {
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	zonePt := geo.Point{Lat: 35.22, Lon: -80.84}
	dryPt := geo.Destination(zonePt, 0, 10000)
	deliveries := []Delivery{
		{PersonID: 1, PrevPos: zonePt, PrevTime: base},
		{PersonID: 2, PrevPos: dryPt, PrevTime: base},
		{PersonID: 3}, // zero PrevTime: trace started at hospital
	}
	inZone := func(p geo.Point, _ time.Time) bool {
		return geo.FastDistance(p, zonePt) < 100
	}
	got := LabelRescued(deliveries, inZone)
	if len(got) != 1 || got[0].PersonID != 1 {
		t.Errorf("LabelRescued = %+v, want person 1 only", got)
	}
}

// TestPipelineRecoversGroundTruth is the end-to-end derivation test: the
// generator's ground-truth rescues should be recoverable from the raw GPS
// traces via Clean -> DetectDeliveries -> LabelRescued, the paper's own
// methodology.
func TestPipelineRecoversGroundTruth(t *testing.T) {
	city, dis, ds := genTestDataset(t)
	if len(ds.Rescues) < 3 {
		t.Skipf("only %d rescues; need a few for a meaningful check", len(ds.Rescues))
	}
	cleaned := Clean(ds.Points, city.Graph.BBox().Pad(3000), 0)
	deliveries := DetectDeliveries(city.Graph, city.Hospitals, cleaned, 300, 2*time.Hour)
	rescued := LabelRescued(deliveries, dis.InFloodZone)

	truth := make(map[int]bool, len(ds.Rescues))
	for _, r := range ds.Rescues {
		truth[r.PersonID] = true
	}
	recovered := 0
	for _, d := range rescued {
		if truth[d.PersonID] {
			recovered++
		}
	}
	if frac := float64(recovered) / float64(len(ds.Rescues)); frac < 0.6 {
		t.Errorf("pipeline recovered only %d/%d ground-truth rescues (deliveries=%d, labeled=%d)",
			recovered, len(ds.Rescues), len(deliveries), len(rescued))
	}
}
