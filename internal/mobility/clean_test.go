package mobility

import (
	"testing"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
)

// sample is one raw GPS sample for building test traces.
type sample struct {
	person int
	at     time.Time
	pos    geo.Point
}

// traces builds a store from samples given in person order.
func traces(t *testing.T, samples ...sample) *pop.Store {
	t.Helper()
	b := pop.NewBuilder()
	for _, s := range samples {
		b.Add(s.person, s.at, s.pos)
	}
	st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDetectDeliveriesCleans pins the cleaning stage folded into
// DetectDeliveries: invalid and out-of-area samples, and samples not
// after the previous kept one, neither start a stay, break one, nor
// become the pre-hospital position.
func TestDetectDeliveriesCleans(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	hPos := g.Landmark(city.Hospitals[0]).Pos
	home := geo.Destination(hPos, 90, 3000)
	box := g.BBox().Pad(3000)
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	tr := traces(t,
		sample{1, base, home}, // kept
		sample{1, base.Add(time.Hour), geo.Point{Lat: 99, Lon: 0}},        // invalid
		sample{1, base.Add(2 * time.Hour), geo.Destination(hPos, 0, 1e5)}, // out of bbox
		sample{1, base.Add(3 * time.Hour), hPos},                          // arrive
		sample{1, base.Add(3 * time.Hour), home},                          // duplicate timestamp
		sample{1, base.Add(150 * time.Minute), home},                      // out of order
		sample{1, base.Add(6 * time.Hour), hPos},                          // still there
		sample{1, base.Add(7 * time.Hour), home},                          // left
		sample{2, base, geo.Point{Lat: 99, Lon: 0}},                       // nothing kept
		sample{2, base.Add(time.Hour), geo.Destination(hPos, 180, 1e5)},   // nothing kept
	)
	got := DetectDeliveries(g, city.Hospitals, tr, box, 300, 2*time.Hour)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1: %+v", len(got), got)
	}
	d := got[0]
	if d.PersonID != 1 || d.Arrive != base.Add(3*time.Hour) || d.Arrive.Location() != time.UTC {
		t.Errorf("delivery = %+v, want person 1 arriving at %v UTC", d, base.Add(3*time.Hour))
	}
	if d.PrevPos != home || d.PrevTime != base {
		t.Errorf("prev = %v at %v, want %v at %v", d.PrevPos, d.PrevTime, home, base)
	}
}

// TestCleanEmpty pins the cleaning stage when it keeps nothing: a
// hospital stay made only of samples the cleaning drops is no delivery.
func TestCleanEmpty(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	hPos := g.Landmark(city.Hospitals[0]).Pos
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	tr := traces(t,
		sample{1, base, hPos},
		sample{1, base.Add(3 * time.Hour), hPos},
		sample{2, base, geo.Point{Lat: 99, Lon: 0}},
		sample{2, base.Add(3 * time.Hour), geo.Point{Lat: 99, Lon: 0}},
	)
	// A box far from the city drops person 1's stay; person 2 is invalid.
	away := geo.NewBBox(geo.Destination(hPos, 0, 1e5)).Pad(1000)
	if got := DetectDeliveries(g, city.Hospitals, tr, away, 300, 2*time.Hour); got != nil {
		t.Errorf("cleaning kept nothing, yet detected %+v", got)
	}
	// The same stay inside the box is a delivery, so the box did the dropping.
	if got := DetectDeliveries(g, city.Hospitals, tr, g.BBox().Pad(3000), 300, 2*time.Hour); len(got) != 1 {
		t.Errorf("deliveries inside the box = %d, want 1: %+v", len(got), got)
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
	hPos := g.Landmark(city.Hospitals[0]).Pos
	home := geo.Destination(hPos, 90, 3000)
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	tr := traces(t,
		sample{1, base, home},
		sample{1, base.Add(2 * time.Hour), home},
		sample{1, base.Add(4 * time.Hour), hPos},                          // arrive
		sample{1, base.Add(6 * time.Hour), geo.Destination(hPos, 10, 50)}, // still there
		sample{1, base.Add(8 * time.Hour), hPos},                          // still there
		sample{1, base.Add(10 * time.Hour), home},                         // left
		sample{2, base, hPos},                                             // brief visit
		sample{2, base.Add(30 * time.Minute), hPos},
		sample{2, base.Add(time.Hour), home},
	)
	got := DetectDeliveries(g, city.Hospitals, tr, g.BBox().Pad(3000), 300, 2*time.Hour)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1: %+v", len(got), got)
	}
	d := got[0]
	if d.PersonID != 1 {
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
	box := g.BBox().Pad(3000)
	hPos := g.Landmark(city.Hospitals[0]).Pos
	base := time.Date(2018, 9, 14, 6, 0, 0, 0, time.UTC)
	if got := DetectDeliveries(g, nil, traces(t, sample{1, base, hPos}), box, 300, time.Hour); got != nil {
		t.Errorf("no hospitals should detect nothing, got %v", got)
	}
	if got := DetectDeliveries(g, city.Hospitals, nil, box, 300, time.Hour); got != nil {
		t.Errorf("no traces should detect nothing, got %v", got)
	}
	// Trace starting at the hospital has no previous position.
	tr := traces(t,
		sample{3, base, hPos},
		sample{3, base.Add(3 * time.Hour), hPos},
	)
	got := DetectDeliveries(g, city.Hospitals, tr, box, 300, 2*time.Hour)
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
// traces via DetectDeliveries (cleaning, then hospital stays) ->
// LabelRescued, the paper's own methodology.
func TestPipelineRecoversGroundTruth(t *testing.T) {
	city, dis, ds := genTestDataset(t)
	if len(ds.Rescues) < 3 {
		t.Skipf("only %d rescues; need a few for a meaningful check", len(ds.Rescues))
	}
	deliveries := DetectDeliveries(city.Graph, city.Hospitals, ds.Traces, city.Graph.BBox().Pad(3000), 300, 2*time.Hour)
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
