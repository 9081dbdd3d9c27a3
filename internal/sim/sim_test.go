package sim

import (
	"math"
	"testing"
	"time"

	"mobirescue/internal/roadnet"
)

var simStart = time.Date(2018, 9, 16, 0, 0, 0, 0, time.UTC)

func testCity(t testing.TB) *roadnet.City {
	t.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	city, err := roadnet.GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// greedyDisp assigns each idle vehicle to the nearest active request
// segment; used as the reference dispatcher for engine tests.
type greedyDisp struct {
	delay time.Duration
}

func (g greedyDisp) Name() string { return "greedy-test" }

func (g greedyDisp) Decide(snap *Snapshot) ([]Order, time.Duration) {
	var orders []Order
	used := make(map[roadnet.SegmentID]bool)
	for _, v := range snap.Vehicles {
		if v.Phase != PhaseIdle {
			continue
		}
		best := roadnet.NoSegment
		bestT := math.Inf(1)
		for _, rq := range snap.ActiveRequests {
			if used[rq.Seg] {
				continue
			}
			if rt, err := snap.Router.RouteToSegmentEnd(v.Pos, rq.Seg); err == nil && rt.Time < bestT {
				bestT = rt.Time
				best = rq.Seg
			}
		}
		if best != roadnet.NoSegment {
			used[best] = true
			orders = append(orders, Order{Vehicle: v.ID, Target: best})
		}
	}
	return orders, g.delay
}

// vehicleAtLandmark returns a Position at the given landmark.
func vehicleAtLandmark(t testing.TB, city *roadnet.City, lm roadnet.LandmarkID) roadnet.Position {
	t.Helper()
	pos, err := city.Graph.AtLandmark(lm)
	if err != nil {
		t.Fatal(err)
	}
	return pos
}

func shortConfig() Config {
	cfg := DefaultConfig(simStart)
	cfg.Duration = 3 * time.Hour
	return cfg
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero start", func(c *Config) { c.Start = time.Time{} }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"zero step", func(c *Config) { c.Step = 0 }},
		{"step beyond duration", func(c *Config) { c.Step = c.Duration * 2 }},
		{"period below step", func(c *Config) { c.Period = c.Step / 2 }},
		{"zero capacity", func(c *Config) { c.Capacity = 0 }},
		{"negative dwell", func(c *Config) { c.PickupTime = -1 }},
		{"zero threshold", func(c *Config) { c.TimelyThreshold = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(simStart)
			tt.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("expected error")
			}
		})
	}
	if err := DefaultConfig(simStart).Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	city := testCity(t)
	cfg := shortConfig()
	start := vehicleAtLandmark(t, city, city.Depot)
	disp := greedyDisp{}
	cost := StaticCost{}
	if _, err := New(nil, cost, disp, nil, []roadnet.Position{start}, cfg); err == nil {
		t.Error("nil city should error")
	}
	if _, err := New(city, nil, disp, nil, []roadnet.Position{start}, cfg); err == nil {
		t.Error("nil cost provider should error")
	}
	if _, err := New(city, cost, nil, nil, []roadnet.Position{start}, cfg); err == nil {
		t.Error("nil dispatcher should error")
	}
	if _, err := New(city, cost, disp, nil, nil, cfg); err == nil {
		t.Error("no vehicles should error")
	}
	badReq := []Request{{ID: 1, Seg: roadnet.SegmentID(99999), AppearAt: simStart}}
	if _, err := New(city, cost, disp, badReq, []roadnet.Position{start}, cfg); err == nil {
		t.Error("invalid request segment should error")
	}
	badStart := []roadnet.Position{{Seg: roadnet.SegmentID(99999)}}
	if _, err := New(city, cost, disp, nil, badStart, cfg); err == nil {
		t.Error("invalid start segment should error")
	}
}

// runSingle runs one vehicle against a handful of requests.
func runSingle(t *testing.T, city *roadnet.City, delay time.Duration, reqs []Request) *Result {
	t.Helper()
	cfg := shortConfig()
	s, err := New(city, StaticCost{}, greedyDisp{delay: delay}, reqs,
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

func TestSingleRequestServedAndDelivered(t *testing.T) {
	city := testCity(t)
	// Request on a segment a few blocks from hospital 2.
	seg := city.Graph.Out(city.Hospitals[2])[0]
	reqs := []Request{{ID: 0, PersonID: 7, Seg: seg, AppearAt: simStart.Add(10 * time.Minute)}}
	res := runSingle(t, city, 0, reqs)
	if res.TotalServed() != 1 {
		t.Fatalf("served = %d, want 1 (outcome %+v)", res.TotalServed(), res.Requests[0])
	}
	out := res.Requests[0]
	if out.ServedBy != 0 {
		t.Errorf("ServedBy = %v", out.ServedBy)
	}
	if out.PickedUpAt.Before(out.AppearAt) {
		t.Errorf("picked up before the request appeared")
	}
	if out.DeliveredAt.IsZero() {
		t.Error("request never delivered to a hospital")
	}
	if !out.DeliveredAt.After(out.PickedUpAt) {
		t.Error("delivered before pickup")
	}
	if out.DrivingDelay <= 0 {
		t.Errorf("driving delay = %v, want > 0", out.DrivingDelay)
	}
	if out.Timeliness() <= 0 {
		t.Errorf("timeliness = %v, want > 0", out.Timeliness())
	}
}

func TestComputeDelayWorsensTimeliness(t *testing.T) {
	city := testCity(t)
	seg := city.Graph.Out(city.Hospitals[4])[0]
	reqs := []Request{{ID: 0, Seg: seg, AppearAt: simStart.Add(10 * time.Minute)}}
	fast := runSingle(t, city, 0, reqs)
	slow := runSingle(t, city, 10*time.Minute, reqs)
	if fast.TotalServed() != 1 || slow.TotalServed() != 1 {
		t.Fatalf("served: fast=%d slow=%d", fast.TotalServed(), slow.TotalServed())
	}
	ft := fast.Requests[0].Timeliness()
	st := slow.Requests[0].Timeliness()
	if st <= ft {
		t.Errorf("compute delay should worsen timeliness: fast=%v slow=%v", ft, st)
	}
	if diff := st - ft; diff < 5*time.Minute {
		t.Errorf("timeliness gap %v should reflect the 10 min delay", diff)
	}
	if slow.MeanComputeDelay() != 10*time.Minute {
		t.Errorf("MeanComputeDelay = %v", slow.MeanComputeDelay())
	}
}

func TestCapacityForcesMultipleTrips(t *testing.T) {
	city := testCity(t)
	seg := city.Graph.Out(city.Hospitals[5])[0]
	var reqs []Request
	for i := 0; i < 8; i++ { // capacity is 5
		reqs = append(reqs, Request{ID: RequestID(i), Seg: seg, AppearAt: simStart.Add(5 * time.Minute)})
	}
	res := runSingle(t, city, 0, reqs)
	if res.TotalServed() != 8 {
		t.Fatalf("served = %d, want 8", res.TotalServed())
	}
	// Pickups must come in two waves (capacity 5 then 3): the latest
	// pickup must be well after the earliest.
	var first, last time.Time
	for _, r := range res.Requests {
		if first.IsZero() || r.PickedUpAt.Before(first) {
			first = r.PickedUpAt
		}
		if r.PickedUpAt.After(last) {
			last = r.PickedUpAt
		}
	}
	if last.Sub(first) < 5*time.Minute {
		t.Errorf("all pickups within %v; capacity should force a second trip", last.Sub(first))
	}
	// Everyone delivered.
	for i, r := range res.Requests {
		if r.DeliveredAt.IsZero() {
			t.Errorf("request %d never delivered", i)
		}
	}
}

func TestRequestUnderIdleVehicleHasZeroTimeliness(t *testing.T) {
	city := testCity(t)
	start := vehicleAtLandmark(t, city, city.Hospitals[0])
	reqs := []Request{{ID: 0, Seg: start.Seg, AppearAt: simStart.Add(30 * time.Minute)}}
	cfg := shortConfig()
	s, err := New(city, StaticCost{}, greedyDisp{}, reqs, []roadnet.Position{start}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() != 1 {
		t.Fatalf("served = %d", res.TotalServed())
	}
	if tl := res.Requests[0].Timeliness(); tl > time.Minute {
		t.Errorf("timeliness = %v, want ~0 (team already on the segment)", tl)
	}
	if res.Requests[0].DrivingDelay != 0 {
		t.Errorf("driving delay = %v, want 0", res.Requests[0].DrivingDelay)
	}
}

func TestResultMetrics(t *testing.T) {
	city := testCity(t)
	segNear := city.Graph.Out(city.Hospitals[1])[0]
	reqs := []Request{
		{ID: 0, Seg: segNear, AppearAt: simStart.Add(10 * time.Minute)},
		{ID: 1, Seg: segNear, AppearAt: simStart.Add(70 * time.Minute)},
	}
	res := runSingle(t, city, 0, reqs)
	if res.TotalServed() != 2 {
		t.Fatalf("served = %d", res.TotalServed())
	}
	perHour := res.TimelyServedPerHour()
	if len(perHour) != 3 {
		t.Fatalf("hours = %d, want 3", len(perHour))
	}
	if sum := perHour[0] + perHour[1] + perHour[2]; sum != res.TotalTimelyServed() {
		t.Errorf("per-hour sum %d != total %d", sum, res.TotalTimelyServed())
	}
	perVeh := res.PerVehicleServed(1)
	if perVeh[0] != res.TotalTimelyServed() {
		t.Errorf("vehicle 0 served %d, want %d", perVeh[0], res.TotalTimelyServed())
	}
	if got := len(res.DrivingDelaysSeconds()); got != 2 {
		t.Errorf("driving delays = %d entries", got)
	}
	if got := len(res.TimelinessSeconds()); got != 2 {
		t.Errorf("timeliness = %d entries", got)
	}
	hourly := res.DrivingDelayPerHour()
	if len(hourly) != 3 {
		t.Errorf("DrivingDelayPerHour length = %d", len(hourly))
	}
	serving := res.ServingPerHour()
	if len(serving) != 3 {
		t.Errorf("ServingPerHour length = %d", len(serving))
	}
	// The dispatcher issued at least one serving order in hour 0.
	if serving[0] <= 0 {
		t.Errorf("ServingPerHour[0] = %v, want > 0", serving[0])
	}
	if res.Method != "greedy-test" {
		t.Errorf("Method = %q", res.Method)
	}
}

// depotDisp sends every idle vehicle to the depot once.
type depotDisp struct{ sent bool }

func (d *depotDisp) Name() string { return "depot-test" }
func (d *depotDisp) Decide(snap *Snapshot) ([]Order, time.Duration) {
	if d.sent {
		return nil, 0
	}
	d.sent = true
	var orders []Order
	for _, v := range snap.Vehicles {
		orders = append(orders, Order{Vehicle: v.ID, ToDepot: true})
	}
	return orders, 0
}

func TestToDepotOrders(t *testing.T) {
	city := testCity(t)
	cfg := shortConfig()
	start := vehicleAtLandmark(t, city, city.Hospitals[6])
	disp := &depotDisp{}
	s, err := New(city, StaticCost{}, disp, nil, []roadnet.Position{start}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Vehicle ends at (a segment touching) the depot.
	v := s.vehicles[0]
	seg := city.Graph.Segment(v.pos.Seg)
	if seg.To != city.Depot && seg.From != city.Depot {
		t.Errorf("vehicle ended on segment %d->%d, not at depot %d", seg.From, seg.To, city.Depot)
	}
	if v.phase != PhaseIdle {
		t.Errorf("vehicle phase = %v, want idle", v.phase)
	}
	// ToDepot orders are not serving orders.
	for _, rs := range s.rounds {
		if rs.Serving != 0 {
			t.Errorf("serving count = %d for depot-only orders", rs.Serving)
		}
	}
}

func TestUnreachableRequestNotServed(t *testing.T) {
	city := testCity(t)
	// Close every segment: vehicle cannot move to new segments.
	closed := closedAll{}
	cfg := shortConfig()
	seg := city.Graph.Out(city.Hospitals[3])[0]
	reqs := []Request{{ID: 0, Seg: seg, AppearAt: simStart.Add(5 * time.Minute)}}
	s, err := New(city, StaticCost{Model: closed}, greedyDisp{}, reqs,
		[]roadnet.Position{vehicleAtLandmark(t, city, city.Hospitals[0])}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalServed() != 0 {
		t.Errorf("served = %d on a fully closed network", res.TotalServed())
	}
}

// closedAll closes every segment.
type closedAll struct{}

func (closedAll) SegmentTime(roadnet.Segment) (float64, bool) { return 0, false }

func TestVehiclePhaseStrings(t *testing.T) {
	for _, p := range []VehiclePhase{PhaseIdle, PhaseServing, PhaseDelivering, PhaseToDepot, PhaseDwell, VehiclePhase(0)} {
		if p.String() == "" {
			t.Errorf("phase %d has empty string", p)
		}
	}
}

func TestVehiclePhaseFreeWorking(t *testing.T) {
	for _, tc := range []struct {
		p             VehiclePhase
		free, working bool
	}{
		{PhaseIdle, true, false},
		{PhaseToDepot, true, false},
		{PhaseServing, false, true},
		{PhaseDelivering, false, true},
		{PhaseDwell, false, true},
	} {
		if got := tc.p.Free(); got != tc.free {
			t.Errorf("%v.Free() = %v, want %v", tc.p, got, tc.free)
		}
		if got := tc.p.Working(); got != tc.working {
			t.Errorf("%v.Working() = %v, want %v", tc.p, got, tc.working)
		}
	}
}

func BenchmarkSimulateDay(b *testing.B) {
	cfgCity := roadnet.DefaultGenConfig()
	cfgCity.GridRows, cfgCity.GridCols = 4, 4
	city, err := roadnet.GenerateCity(cfgCity)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(simStart)
	var reqs []Request
	for i := 0; i < 50; i++ {
		seg := roadnet.SegmentID(i * 7 % city.Graph.NumSegments())
		reqs = append(reqs, Request{ID: RequestID(i), Seg: seg,
			AppearAt: simStart.Add(time.Duration(i) * 20 * time.Minute)})
	}
	var starts []roadnet.Position
	for i := 0; i < 10; i++ {
		pos, err := city.Graph.AtLandmark(city.Hospitals[i%len(city.Hospitals)])
		if err != nil {
			b.Fatal(err)
		}
		starts = append(starts, pos)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(city, StaticCost{}, greedyDisp{}, reqs, starts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
