package dispatch

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"mobirescue/internal/ilp"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
	"mobirescue/internal/tsa"
)

var dispStart = time.Date(2018, 9, 16, 0, 0, 0, 0, time.UTC)

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

// testSnapshot builds a dispatcher-visible snapshot with vehicles at the
// given landmarks and requests on the given segments.
func testSnapshot(t testing.TB, city *roadnet.City, vehicleLMs []roadnet.LandmarkID, reqSegs []roadnet.SegmentID) *sim.Snapshot {
	t.Helper()
	snap := &sim.Snapshot{
		Time:   dispStart.Add(10 * time.Hour),
		City:   city,
		Cost:   roadnet.FreeFlow{},
		Router: roadnet.NewRouter(city.Graph, roadnet.FreeFlow{}),
	}
	for i, lm := range vehicleLMs {
		pos, err := city.Graph.AtLandmark(lm)
		if err != nil {
			t.Fatal(err)
		}
		snap.Vehicles = append(snap.Vehicles, sim.VehicleState{
			ID: sim.VehicleID(i), Pos: pos, Phase: sim.PhaseIdle,
		})
	}
	for i, seg := range reqSegs {
		snap.ActiveRequests = append(snap.ActiveRequests, sim.RequestState{
			ID: sim.RequestID(i), Seg: seg, AppearAt: snap.Time.Add(-5 * time.Minute),
		})
	}
	return snap
}

func TestRegionDemand(t *testing.T) {
	city := testCity(t)
	g := city.Graph
	byRegion := g.SegmentIDsByRegion()
	pred := map[roadnet.SegmentID]float64{
		byRegion[1][0]:            2,
		byRegion[1][1]:            3,
		byRegion[3][0]:            7,
		roadnet.SegmentID(999999): 5, // invalid: ignored
	}
	demand := regionDemand(g, pred, 7)
	if demand[1] != 5 {
		t.Errorf("region 1 demand = %v, want 5", demand[1])
	}
	if demand[3] != 7 {
		t.Errorf("region 3 demand = %v, want 7", demand[3])
	}
	if demand[2] != 0 {
		t.Errorf("region 2 demand = %v, want 0", demand[2])
	}
}

func TestBestSegmentInRegion(t *testing.T) {
	city := testCity(t)
	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Depot}, nil)
	byRegion := city.Graph.SegmentIDsByRegion()
	pred := map[roadnet.SegmentID]float64{
		byRegion[2][0]: 1,
		byRegion[2][1]: 9,
	}
	if got := rankedSegmentsInRegion(snap, 2, pred)[0]; got != byRegion[2][1] {
		t.Errorf("best = %v, want the higher-demand segment %v", got, byRegion[2][1])
	}
	// No demand: patrol fallback near the region center.
	got := nearestOpenInRegion(snap, snap.Cost, 5)
	if got == roadnet.NoSegment {
		t.Fatal("fallback returned no segment")
	}
	if city.Graph.Segment(got).Region != 5 {
		t.Errorf("fallback segment in region %d, want 5", city.Graph.Segment(got).Region)
	}
}

func TestArrival(t *testing.T) {
	city := testCity(t)
	g := city.Graph
	pos, err := g.AtLandmark(city.Depot)
	if err != nil {
		t.Fatal(err)
	}
	tree, head := roadnet.NewRouter(g, roadnet.FreeFlow{}).TreeFromPosition(pos)
	here := g.Segment(pos.Seg)
	if got := arrival(tree, head, pos, here, 1e6); got != head {
		t.Errorf("own segment: arrival = %v, want head %v", got, head)
	}
	far := g.Segment(g.Out(city.Hospitals[3])[0])
	w := far.FreeFlowTime()
	if got, want := arrival(tree, head, pos, far, w), head+tree.TimeTo(far.From)+w; got != want || math.IsInf(got, 1) {
		t.Errorf("other segment: arrival = %v, want %v", got, want)
	}
	// With every road closed, nothing past the team's own segment is
	// reachable.
	closed, head := roadnet.NewRouter(g, closedAll{}).TreeFromPosition(pos)
	if got := arrival(closed, head, pos, far, w); !math.IsInf(got, 1) {
		t.Errorf("unreachable segment: arrival = %v, want +Inf", got)
	}
}

// closedAll closes every segment.
type closedAll struct{}

func (closedAll) SegmentTime(roadnet.Segment) (float64, bool) { return 0, false }

func constPredict(pred map[roadnet.SegmentID]float64) PredictFn {
	return func(time.Time) map[roadnet.SegmentID]float64 { return pred }
}

func TestNewMobiRescueValidation(t *testing.T) {
	if _, err := NewMobiRescue(0, constPredict(nil), DefaultMRConfig()); err == nil {
		t.Error("zero regions should error")
	}
	if _, err := NewMobiRescue(7, nil, DefaultMRConfig()); err == nil {
		t.Error("nil predict should error")
	}
	m, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "MobiRescue" {
		t.Errorf("Name = %q", m.Name())
	}
}

// TestNewMobiRescueFootprint pins the cost of a dispatcher that only
// decides (a serve session, a benchmark pass): building one allocates
// under 1 MB, because the learner's replay storage grows only as
// transitions arrive instead of holding all BufferSize slots up front.
func TestNewMobiRescueFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("NewMobiRescue allocated %.2f MB, want under 1 MB", float64(n)/(1<<20))
	}
	runtime.KeepAlive(m)
}

func TestMobiRescueDecideProducesValidOrders(t *testing.T) {
	city := testCity(t)
	byRegion := city.Graph.SegmentIDsByRegion()
	pred := map[roadnet.SegmentID]float64{
		byRegion[3][0]: 4,
		byRegion[2][0]: 2,
	}
	m, err := NewMobiRescue(7, constPredict(pred), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[0], city.Hospitals[1]}, nil)
	orders, latency := m.Decide(snap)
	if latency >= time.Second {
		t.Errorf("RL inference latency = %v, want < 1 s", latency)
	}
	if len(orders) != 2 {
		t.Fatalf("orders = %d, want one per idle vehicle", len(orders))
	}
	for _, o := range orders {
		if o.ToDepot {
			continue
		}
		if int(o.Target) < 0 || int(o.Target) >= city.Graph.NumSegments() {
			t.Errorf("order target %d invalid", o.Target)
		}
	}
}

func TestMobiRescueSkipsBusyVehicles(t *testing.T) {
	city := testCity(t)
	m, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[0], city.Hospitals[1]}, nil)
	snap.Vehicles[0].Phase = sim.PhaseDelivering
	snap.Vehicles[1].Onboard = 5 // full
	orders, _ := m.Decide(snap)
	if len(orders) != 0 {
		t.Errorf("busy vehicles received %d orders", len(orders))
	}
}

func TestMobiRescueTrainingObserves(t *testing.T) {
	city := testCity(t)
	byRegion := city.Graph.SegmentIDsByRegion()
	pred := map[roadnet.SegmentID]float64{byRegion[3][0]: 4}
	cfg := DefaultMRConfig()
	cfg.Agent.LearnStart = 1_000_000 // avoid slow learning in the unit test
	m, err := NewMobiRescue(7, constPredict(pred), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTraining(true)
	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[0]}, nil)
	if _, _ = m.Decide(snap); m.Agent().Steps() != 0 {
		t.Errorf("first round should not observe (no previous decision), steps=%d", m.Agent().Steps())
	}
	// Second round closes the first transition.
	snap2 := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[0]}, nil)
	snap2.Vehicles[0].Served = 2
	if _, _ = m.Decide(snap2); m.Agent().Steps() != 1 {
		t.Errorf("second round should observe one transition, steps=%d", m.Agent().Steps())
	}
	// EndEpisode flushes the open transition with done=true.
	m.EndEpisode()
	if m.Agent().Steps() != 2 {
		t.Errorf("EndEpisode should flush, steps=%d", m.Agent().Steps())
	}
}

func TestMobiRescueSaveLoadPolicy(t *testing.T) {
	m1, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m1.SavePolicy(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleAssignsNearestAndStandby(t *testing.T) {
	city := testCity(t)
	lat := ilp.LatencyModel{Base: 300 * time.Second}
	s := NewSchedule(city.Graph, lat)
	if s.Name() != "Schedule" {
		t.Errorf("Name = %q", s.Name())
	}
	// Vehicle 0 sits in region 1's hospital, vehicle 1 in region 2's.
	// One request next to each hospital: the assignment should pair them
	// locally, not crosswise.
	req0 := city.Graph.Out(city.Hospitals[0])[0]
	req1 := city.Graph.Out(city.Hospitals[1])[0]
	snap := testSnapshot(t, city,
		[]roadnet.LandmarkID{city.Hospitals[0], city.Hospitals[1], city.Hospitals[2]},
		[]roadnet.SegmentID{req0, req1})
	orders, latency := s.Decide(snap)
	if latency < time.Minute {
		t.Errorf("IP latency = %v, want minutes-scale", latency)
	}
	// Every available vehicle is ordered somewhere (constant serving).
	if len(orders) != 3 {
		t.Fatalf("orders = %d, want 3", len(orders))
	}
	targets := make(map[sim.VehicleID]roadnet.SegmentID)
	for _, o := range orders {
		if o.ToDepot {
			t.Error("Schedule never sends teams to the depot")
		}
		targets[o.Vehicle] = o.Target
	}
	if targets[0] != req0 {
		t.Errorf("vehicle 0 -> %v, want its local request %v", targets[0], req0)
	}
	if targets[1] != req1 {
		t.Errorf("vehicle 1 -> %v, want its local request %v", targets[1], req1)
	}
}

func TestScheduleIgnoresDeliveringVehicles(t *testing.T) {
	city := testCity(t)
	s := NewSchedule(city.Graph, ilp.LatencyModel{})
	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[0]}, nil)
	snap.Vehicles[0].Phase = sim.PhaseDelivering
	orders, _ := s.Decide(snap)
	if len(orders) != 0 {
		t.Errorf("delivering vehicle got %d orders", len(orders))
	}
}

func TestRescuePredictsFromHistory(t *testing.T) {
	city := testCity(t)
	pred, err := tsa.New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	hot := city.Graph.SegmentIDsByRegion()[3][0]
	// Seed "yesterday" with demand at hour 10 on the hot segment.
	pred.Observe(int(hot), 10, 6)
	r := NewRescue(pred, dispStart.Add(-24*time.Hour), ilp.PaperLatency())
	if r.Name() != "Rescue" {
		t.Errorf("Name = %q", r.Name())
	}
	// dispStart+10h is hour 34 from the predictor origin; same hour of
	// day as the seeded demand.
	at := dispStart.Add(10 * time.Hour)
	if got := r.Predict(hot, at); got <= 0 {
		t.Fatalf("Predict = %v, want > 0 from history", got)
	}

	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[2], city.Hospitals[3]}, nil)
	orders, latency := r.Decide(snap)
	if latency < time.Minute {
		t.Errorf("IP latency = %v, want minutes-scale", latency)
	}
	if len(orders) != 2 {
		t.Fatalf("orders = %d, want every team deployed", len(orders))
	}
	// One of the teams should head to the predicted hot segment.
	found := false
	for _, o := range orders {
		if o.Target == hot {
			found = true
		}
	}
	if !found {
		t.Errorf("no team sent to the predicted hot segment; orders = %+v", orders)
	}
}

func TestRescueObserveFeedsPredictor(t *testing.T) {
	city := testCity(t)
	pred, err := tsa.New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRescue(pred, dispStart, ilp.LatencyModel{})
	seg := city.Graph.SegmentIDsByRegion()[4][0]
	snap := testSnapshot(t, city, []roadnet.LandmarkID{city.Hospitals[0]}, []roadnet.SegmentID{seg, seg})
	r.Observe(snap)
	// Tomorrow at the same hour, the predictor should expect demand.
	if got := r.Predict(seg, snap.Time.Add(24*time.Hour)); got <= 0 {
		t.Errorf("Predict after Observe = %v, want > 0", got)
	}
}

// TestRescueStateCodec: Rescue's snapshot blob is the bare time-series
// predictor blob, so it restores into a plain tsa.Predictor with the
// same forecasts.
func TestRescueStateCodec(t *testing.T) {
	city := testCity(t)
	pred, err := tsa.New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	segs := city.Graph.SegmentIDsByRegion()[1]
	for _, seg := range segs {
		pred.Observe(int(seg), 10, 2)
	}
	r := NewRescue(pred, dispStart, ilp.LatencyModel{})
	r.Decide(testSnapshot(t, city, city.Hospitals[:4], segs[:2]))
	blob, err := r.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	bare, err := tsa.New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.RestoreState(blob); err != nil {
		t.Fatalf("Rescue blob is not a bare predictor blob: %v", err)
	}
	// Hour 34 forecasts from hour 10: the seeded history plus, on the
	// first two segments, Decide's own observation.
	for _, seg := range segs[:3] {
		want := pred.Predict(int(seg), 34)
		if want <= 0 {
			t.Fatalf("segment %d: no forecast to compare", seg)
		}
		if got := bare.Predict(int(seg), 34); got != want {
			t.Errorf("segment %d: restored predicts %v, want %v", seg, got, want)
		}
	}
}

// TestMobiRescueStateBytesDeterministic: one MobiRescue state, with
// several target assignments and last decisions, always encodes to the
// same bytes (gob would write a map in random order), and the bytes
// restore the same assignments.
func TestMobiRescueStateBytesDeterministic(t *testing.T) {
	m, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	for v := sim.VehicleID(0); v < 9; v++ {
		m.assigned[v] = roadnet.SegmentID(40 - 3*int(v))
		m.last[v] = &decision{state: []float64{float64(v), 1}, action: int(v) % 8, served: int(v)}
	}
	first, err := m.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := m.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("capture %d encoded different bytes", i)
		}
	}
	fresh, err := NewMobiRescue(7, constPredict(nil), DefaultMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(first); err != nil {
		t.Fatal(err)
	}
	if len(fresh.assigned) != len(m.assigned) || len(fresh.last) != len(m.last) {
		t.Fatalf("restored %d assignments and %d decisions, want %d and %d",
			len(fresh.assigned), len(fresh.last), len(m.assigned), len(m.last))
	}
	for v, seg := range m.assigned {
		if got, ok := fresh.assigned[v]; !ok || got != seg {
			t.Errorf("vehicle %d: restored target %d (present %v), want %d", v, got, ok, seg)
		}
	}
}
