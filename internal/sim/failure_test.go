package sim

import (
	"testing"
	"time"

	"mobirescue/internal/roadnet"
)

// timedClosure closes every segment after a cutoff instant — the
// mid-route closure failure case from DESIGN.md §6.
type timedClosure struct {
	cutoff time.Time
}

func (tc timedClosure) CostAt(t time.Time) roadnet.CostModel {
	if t.Before(tc.cutoff) {
		return roadnet.FreeFlow{}
	}
	return closedAll{}
}

func TestSegmentsClosingMidRoute(t *testing.T) {
	city := testCity(t)
	cfg := shortConfig()
	// A request far from the vehicle so the drive spans the closure.
	far := city.Graph.Out(city.Hospitals[1])[0]
	reqs := []Request{{ID: 0, Seg: far, AppearAt: simStart.Add(2 * time.Minute)}}
	start := vehicleAtLandmark(t, city, city.Hospitals[6])
	// Roads all close 10 minutes in; the vehicle must limp onward at
	// crawl speed rather than deadlock.
	cost := RescueCostProvider{Base: timedClosure{cutoff: simStart.Add(10 * time.Minute)}, Crawl: 0.5}
	s, err := New(city, cost, greedyDisp{}, reqs, []roadnet.Position{start}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() != 1 {
		t.Fatalf("request not served through mid-route closure (served=%d)", res.TotalServed())
	}
	out := res.Requests[0]
	if out.DeliveredAt.IsZero() {
		t.Error("passenger never delivered after closure")
	}
}

func TestEmptyDemandRunsClean(t *testing.T) {
	city := testCity(t)
	cfg := shortConfig()
	start := vehicleAtLandmark(t, city, city.Hospitals[0])
	s, err := New(city, StaticCost{}, greedyDisp{}, nil, []roadnet.Position{start}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() != 0 || len(res.Requests) != 0 {
		t.Errorf("empty demand produced outcomes: %+v", res.Requests)
	}
	if len(res.Rounds) == 0 {
		t.Error("dispatch rounds should still run")
	}
}

func TestRescueCostKeepsNetworkReachable(t *testing.T) {
	city := testCity(t)
	// Even with every segment closed, the rescue cost model keeps them
	// traversable (slowly).
	rc := RescueCost{Base: closedAll{}, Crawl: 0.1}
	seg := city.Graph.Segment(roadnet.SegmentID(0))
	w, open := rc.SegmentTime(seg)
	if !open {
		t.Fatal("rescue cost should keep closed segments traversable")
	}
	if want := seg.FreeFlowTime() / 0.1; w != want {
		t.Errorf("crawl time = %v, want %v", w, want)
	}
	// Open segments pass through the base model untouched.
	rc2 := RescueCost{Base: roadnet.FreeFlow{}, Crawl: 0.1}
	w2, open2 := rc2.SegmentTime(seg)
	if !open2 || w2 != seg.FreeFlowTime() {
		t.Errorf("open segment altered: %v, %v", w2, open2)
	}
	// Nil base and zero crawl default sensibly.
	rc3 := RescueCost{}
	if w3, open3 := rc3.SegmentTime(seg); !open3 || w3 != seg.FreeFlowTime() {
		t.Errorf("nil base should act like free flow: %v, %v", w3, open3)
	}
	prov := RescueCostProvider{}
	if _, open := prov.CostAt(simStart).SegmentTime(seg); !open {
		t.Error("provider with nil base should keep segments open")
	}
}

func TestCivilian(t *testing.T) {
	seg := testCity(t).Graph.Segment(roadnet.SegmentID(0))
	// Under the crawl adapter a closed segment reads open; the civilian
	// view sees it closed.
	if _, open := Civilian(RescueCost{Base: closedAll{}, Crawl: 0.1}).SegmentTime(seg); open {
		t.Error("civilian view of a closed base reads open")
	}
	// A plain model, or an adapter without a base, is its own view.
	for _, cost := range []roadnet.CostModel{closedAll{}, roadnet.FreeFlow{}, RescueCost{Crawl: 0.1}} {
		if got := Civilian(cost); got != cost {
			t.Errorf("Civilian(%#v) = %#v, want it unchanged", cost, got)
		}
	}
}

func TestRouteOrderFollowedVerbatim(t *testing.T) {
	city := testCity(t)
	cfg := shortConfig()
	g := city.Graph
	start := vehicleAtLandmark(t, city, city.Hospitals[0])
	// Build a valid two-hop route by walking out-segments.
	first := start.Seg
	second := g.Out(g.Segment(first).To)[0]
	disp := &routeDisp{route: []roadnet.SegmentID{first, second}}
	s, err := New(city, StaticCost{}, disp, nil, []roadnet.Position{start}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The vehicle must end at the supplied route's final segment.
	if got := s.vehicles[0].pos.Seg; got != second {
		t.Errorf("vehicle ended on segment %d, want %d", got, second)
	}
}

// routeDisp issues a single explicit-route order.
type routeDisp struct {
	route []roadnet.SegmentID
	sent  bool
}

func (d *routeDisp) Name() string { return "route-test" }
func (d *routeDisp) Decide(snap *Snapshot) ([]Order, time.Duration) {
	if d.sent {
		return nil, 0
	}
	d.sent = true
	return []Order{{
		Vehicle: snap.Vehicles[0].ID,
		Target:  d.route[len(d.route)-1],
		Route:   d.route,
	}}, 0
}

func TestInvalidRouteFallsBackToPlanner(t *testing.T) {
	city := testCity(t)
	cfg := shortConfig()
	start := vehicleAtLandmark(t, city, city.Hospitals[0])
	target := city.Graph.Out(city.Hospitals[2])[0]
	// Route does not start at the vehicle's segment: invalid, so the
	// simulator must re-plan and still reach the target.
	bogus := []roadnet.SegmentID{target}
	disp := &routeDisp{route: bogus}
	s, err := New(city, StaticCost{}, disp, nil, []roadnet.Position{start}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start.Seg == target {
		t.Skip("degenerate layout")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.vehicles[0].pos.Seg; got != target {
		t.Errorf("fallback routing did not reach target: on %d, want %d", got, target)
	}
}
