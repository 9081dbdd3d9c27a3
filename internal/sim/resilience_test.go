package sim

import (
	"bytes"
	"testing"
	"time"

	"mobirescue/internal/roadnet"
)

// flipCost is a mutable CostProvider for mid-test cost swaps.
type flipCost struct{ model roadnet.CostModel }

func (f *flipCost) CostAt(time.Time) roadnet.CostModel { return f.model }

// segClosure closes exactly the listed segments.
type segClosure map[roadnet.SegmentID]bool

func (c segClosure) SegmentTime(s roadnet.Segment) (float64, bool) {
	if c[s.ID] {
		return 0, false
	}
	return s.FreeFlowTime(), true
}

// badOrderDisp emits one deliberately garbage-laden batch, then stays
// quiet. The batch holds one unknown-vehicle order, one out-of-range
// target, one good order, and one duplicate for the same vehicle.
type badOrderDisp struct {
	good  roadnet.SegmentID
	fired bool
}

func (d *badOrderDisp) Name() string { return "bad-orders" }

func (d *badOrderDisp) Decide(snap *Snapshot) ([]Order, time.Duration) {
	if d.fired {
		return nil, 0
	}
	d.fired = true
	return []Order{
		{Vehicle: 999, Target: d.good},                   // unknown vehicle
		{Vehicle: 0, Target: roadnet.SegmentID(1 << 29)}, // out-of-range target
		{Vehicle: 0, Target: d.good},                     // the real order
		{Vehicle: 0, Target: d.good},                     // same-round duplicate
	}, 0
}

func TestSanitizeOrdersCountsRejections(t *testing.T) {
	city := testCity(t)
	good := city.Graph.Out(city.Hospitals[2])[0]
	reqs := []Request{{ID: 0, Seg: good, AppearAt: simStart}}
	s, err := New(city, StaticCost{}, &badOrderDisp{good: good}, reqs,
		[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() != 1 {
		t.Errorf("served = %d, want 1 (the good order must survive sanitization)", res.TotalServed())
	}
	r := res.Resilience
	if r.OrdersRejectedBadVehicle != 1 || r.OrdersRejectedBadTarget != 1 || r.OrdersRejectedDuplicate != 1 {
		t.Errorf("rejections = %+v, want one of each kind", r)
	}
	if r.TotalRejected() != 3 {
		t.Errorf("TotalRejected = %d, want 3", r.TotalRejected())
	}
	if !r.Any() {
		t.Error("Any() = false after rejections")
	}
	if (ResilienceStats{}).Any() {
		t.Error("zero stats should report Any() = false")
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
}

func TestOrderFault(t *testing.T) {
	const vehicles, segments = 3, 10
	seen := map[VehicleID]bool{1: true}
	for _, tc := range []struct {
		name string
		o    Order
		want string
	}{
		{"well formed", Order{Vehicle: 0, Target: 9}, ""},
		{"negative vehicle", Order{Vehicle: -1, Target: 2}, "bad_vehicle"},
		{"vehicle past fleet", Order{Vehicle: vehicles, Target: 2}, "bad_vehicle"},
		{"negative target", Order{Vehicle: 0, Target: -1}, "bad_target"},
		{"target past graph", Order{Vehicle: 0, Target: segments}, "bad_target"},
		{"depot order ignores target", Order{Vehicle: 0, ToDepot: true, Target: segments}, ""},
		{"duplicate", Order{Vehicle: 1, Target: 2}, "duplicate"},
		{"duplicate depot order", Order{Vehicle: 1, ToDepot: true}, "duplicate"},
		// The vehicle is checked before the target, the target before
		// the duplicate.
		{"bad vehicle and target", Order{Vehicle: vehicles, Target: segments}, "bad_vehicle"},
		{"bad target and duplicate", Order{Vehicle: 1, Target: segments}, "bad_target"},
	} {
		if got := OrderFault(tc.o, vehicles, segments, seen); got != tc.want {
			t.Errorf("%s: OrderFault(%+v) = %q, want %q", tc.name, tc.o, got, tc.want)
		}
	}
}

func TestVehicleFaultStallsVehicle(t *testing.T) {
	city := testCity(t)
	seg := city.Graph.Out(city.Hospitals[4])[0]
	reqs := []Request{{ID: 0, Seg: seg, AppearAt: simStart.Add(5 * time.Minute)}}
	run := func(faults []VehicleFault) *Result {
		cfg := shortConfig()
		cfg.VehicleFaults = faults
		s, err := New(city, StaticCost{}, greedyDisp{}, reqs,
			[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(nil)
	stalled := run([]VehicleFault{
		{Vehicle: 0, At: simStart, Duration: time.Hour},
		{Vehicle: 99, At: simStart, Duration: time.Hour}, // unknown: dropped
	})
	if healthy.TotalServed() != 1 || stalled.TotalServed() != 1 {
		t.Fatalf("served: healthy=%d stalled=%d", healthy.TotalServed(), stalled.TotalServed())
	}
	if stalled.Resilience.VehicleStalls != 1 {
		t.Errorf("VehicleStalls = %d, want 1 (unknown-vehicle fault must be dropped)",
			stalled.Resilience.VehicleStalls)
	}
	delta := stalled.Requests[0].PickedUpAt.Sub(healthy.Requests[0].PickedUpAt)
	if delta < 30*time.Minute {
		t.Errorf("stall delayed pickup by only %v, want >= 30m of the 1h breakdown", delta)
	}
}

// planServing puts the simulator's vehicle 0 on a simulator-planned
// serving route to target and returns the route.
func planServing(t *testing.T, s *Simulator, target roadnet.SegmentID) []roadnet.SegmentID {
	t.Helper()
	v := s.vehicles[0]
	rt, err := s.router.RouteToSegmentEnd(v.pos, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Segs) < 3 {
		t.Fatalf("test route too short (%d segments) to close a middle segment", len(rt.Segs))
	}
	v.phase = PhaseServing
	v.route = append([]roadnet.SegmentID(nil), rt.Segs...)
	v.verbatim = false
	return rt.Segs
}

// farTarget picks the segment with the longest planned route from pos.
func farTarget(t *testing.T, s *Simulator) roadnet.SegmentID {
	t.Helper()
	v := s.vehicles[0]
	best := roadnet.NoSegment
	bestLen := 0
	for sid := 0; sid < s.city.Graph.NumSegments(); sid++ {
		rt, err := s.router.RouteToSegmentEnd(v.pos, roadnet.SegmentID(sid))
		if err != nil {
			continue
		}
		if len(rt.Segs) > bestLen {
			bestLen = len(rt.Segs)
			best = roadnet.SegmentID(sid)
		}
	}
	if best == roadnet.NoSegment {
		t.Fatal("no reachable target")
	}
	return best
}

func TestRerouteOnMidEpisodeClosure(t *testing.T) {
	city := testCity(t)
	prov := &flipCost{model: roadnet.FreeFlow{}}
	s, err := New(city, prov, greedyDisp{}, nil,
		[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	target := farTarget(t, s)
	route := planServing(t, s, target)
	mid := route[len(route)/2]
	// Flood closes a middle segment of the planned route.
	prov.model = segClosure{mid: true}
	s.refreshCost()
	s.rerouteVehicles()
	if s.res.Reroutes != 1 {
		t.Fatalf("Reroutes = %d, want 1", s.res.Reroutes)
	}
	v := s.vehicles[0]
	if got := v.route[len(v.route)-1]; got != target {
		t.Errorf("repaired route ends at %d, want original target %d", got, target)
	}
	for _, sid := range v.route[1:] {
		if sid == mid {
			t.Errorf("repaired route still crosses closed segment %d", mid)
		}
	}
	if v.phase != PhaseServing {
		t.Errorf("phase = %v after repair, want serving", v.phase)
	}
}

func TestStrandedVehicleDivertsToDepot(t *testing.T) {
	city := testCity(t)
	prov := &flipCost{model: roadnet.FreeFlow{}}
	s, err := New(city, prov, greedyDisp{}, nil,
		[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	target := farTarget(t, s)
	planServing(t, s, target)
	// The target segment itself floods: no repair can succeed.
	prov.model = segClosure{target: true}
	s.refreshCost()
	s.rerouteVehicles()
	if s.res.StrandedDiverts != 1 {
		t.Fatalf("StrandedDiverts = %d, want 1", s.res.StrandedDiverts)
	}
	v := s.vehicles[0]
	if v.phase != PhaseToDepot || v.goal != city.Depot {
		t.Errorf("stranded vehicle phase=%v goal=%v, want to-depot toward %v", v.phase, v.goal, city.Depot)
	}
}

func TestVerbatimRouteNeverRepaired(t *testing.T) {
	city := testCity(t)
	prov := &flipCost{model: roadnet.FreeFlow{}}
	s, err := New(city, prov, greedyDisp{}, nil,
		[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	target := farTarget(t, s)
	route := planServing(t, s, target)
	v := s.vehicles[0]
	v.verbatim = true // dispatcher-supplied plan: the stale route is its own cost
	prov.model = segClosure{route[len(route)/2]: true}
	s.refreshCost()
	s.rerouteVehicles()
	if s.res.Reroutes != 0 || s.res.StrandedDiverts != 0 {
		t.Errorf("verbatim route was touched: %+v", s.res)
	}
	if len(v.route) != len(route) {
		t.Errorf("verbatim route length changed: %d -> %d", len(route), len(v.route))
	}
}

func TestWriteResilienceReportDeterministic(t *testing.T) {
	city := testCity(t)
	seg := city.Graph.Out(city.Hospitals[3])[0]
	reqs := []Request{
		{ID: 0, Seg: seg, AppearAt: simStart.Add(5 * time.Minute)},
		{ID: 1, Seg: city.Graph.Out(city.Hospitals[5])[0], AppearAt: simStart.Add(40 * time.Minute)},
	}
	run := func(faulty bool) *Result {
		cfg := shortConfig()
		if faulty {
			cfg.VehicleFaults = []VehicleFault{{Vehicle: 0, At: simStart, Duration: 30 * time.Minute}}
		}
		s, err := New(city, StaticCost{}, greedyDisp{}, reqs,
			[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	report := func() []byte {
		var buf bytes.Buffer
		if err := WriteResilienceReport(&buf, run(false), run(true)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := report(), report()
	if !bytes.Equal(a, b) {
		t.Errorf("reports differ across identical runs:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
	if err := WriteResilienceReport(&bytes.Buffer{}, nil, nil); err == nil {
		t.Error("nil results should error")
	}
}
