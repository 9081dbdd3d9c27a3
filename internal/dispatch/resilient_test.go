package dispatch

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// flakyDisp panics, sleeps, or answers per a script of round behaviors.
// The call counter is atomic because the timeout test reads it while a
// timed-out Decide goroutine is still sleeping inside the wrapper.
type flakyDisp struct {
	script []string // "ok", "panic", "sleep"
	calls  atomic.Int32
	sleep  time.Duration
	target roadnet.SegmentID
}

func (d *flakyDisp) Name() string { return "flaky" }

func (d *flakyDisp) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	step := "ok"
	if n := int(d.calls.Load()); n < len(d.script) {
		step = d.script[n]
	}
	d.calls.Add(1)
	switch step {
	case "panic":
		panic("flaky: scripted panic")
	case "sleep":
		time.Sleep(d.sleep)
	}
	return []sim.Order{{Vehicle: 0, Target: d.target}}, time.Second
}

func resilientSnapshot(t testing.TB, city *roadnet.City) *sim.Snapshot {
	t.Helper()
	return testSnapshot(t, city,
		[]roadnet.LandmarkID{city.Hospitals[0], city.Hospitals[1]},
		[]roadnet.SegmentID{city.Graph.Out(city.Hospitals[2])[0]})
}

func TestResilientRecoversPanics(t *testing.T) {
	city := testCity(t)
	target := city.Graph.Out(city.Hospitals[3])[0]
	primary := &flakyDisp{script: []string{"panic", "ok"}, target: target}
	r := NewResilient(primary, DefaultResilientConfig())
	r.EnableMetrics(obs.NewRegistry())
	if r.Name() != "flaky" {
		t.Errorf("Name = %q, want primary's name", r.Name())
	}
	snap := resilientSnapshot(t, city)
	// Round 1: primary panics; the fallback must still produce orders
	// for the idle vehicles and the panic must not escape.
	orders, _ := r.Decide(snap)
	if len(orders) == 0 {
		t.Error("fallback produced no orders despite active requests")
	}
	if r.LastError() == nil {
		t.Error("LastError should record the panic")
	}
	// Round 2: primary recovers.
	orders, delay := r.Decide(snap)
	if len(orders) != 1 || orders[0].Target != target {
		t.Errorf("recovered primary orders = %+v", orders)
	}
	if delay != time.Second {
		t.Errorf("delay = %v, want the primary's 1s", delay)
	}
	if r.LastError() != nil {
		t.Errorf("LastError after recovery = %v, want nil", r.LastError())
	}
}

func TestResilientBackoffAfterConsecutiveFailures(t *testing.T) {
	city := testCity(t)
	target := city.Graph.Out(city.Hospitals[3])[0]
	primary := &flakyDisp{
		script: []string{"panic", "panic", "panic", "ok"},
		target: target,
	}
	cfg := DefaultResilientConfig()
	cfg.MaxFailures = 3
	cfg.BackoffRounds = 2
	r := NewResilient(primary, cfg)
	snap := resilientSnapshot(t, city)
	// Rounds 1-3: three consecutive panics trip the breaker.
	for i := 0; i < 3; i++ {
		r.Decide(snap)
	}
	if primary.calls.Load() != 3 {
		t.Fatalf("primary called %d times, want 3", primary.calls.Load())
	}
	// Rounds 4-5: benched — the primary must not be consulted.
	r.Decide(snap)
	r.Decide(snap)
	if primary.calls.Load() != 3 {
		t.Errorf("primary called %d times during backoff, want still 3", primary.calls.Load())
	}
	// Round 6: retry succeeds.
	orders, _ := r.Decide(snap)
	if primary.calls.Load() != 4 {
		t.Errorf("primary calls = %d after backoff, want 4", primary.calls.Load())
	}
	if len(orders) != 1 || orders[0].Target != target {
		t.Errorf("post-recovery orders = %+v", orders)
	}
}

func TestResilientDecideTimeout(t *testing.T) {
	city := testCity(t)
	target := city.Graph.Out(city.Hospitals[3])[0]
	primary := &flakyDisp{
		script: []string{"sleep", "ok"},
		sleep:  300 * time.Millisecond,
		target: target,
	}
	cfg := DefaultResilientConfig()
	cfg.DecideTimeout = 30 * time.Millisecond
	r := NewResilient(primary, cfg)
	snap := resilientSnapshot(t, city)
	// Round 1: primary sleeps past the deadline; fallback serves.
	if orders, _ := r.Decide(snap); len(orders) == 0 {
		t.Error("fallback produced no orders on timeout")
	}
	if r.LastError() == nil {
		t.Error("timeout should surface in LastError")
	}
	// Round 2 immediately after: the old call is still in flight, so the
	// primary must not be re-entered concurrently.
	r.Decide(snap)
	if primary.calls.Load() != 1 {
		t.Errorf("primary re-entered while busy: calls = %d", primary.calls.Load())
	}
	// Let the stray call drain, then the primary serves again.
	time.Sleep(350 * time.Millisecond)
	orders, _ := r.Decide(snap)
	if primary.calls.Load() != 2 {
		t.Errorf("primary calls = %d after drain, want 2", primary.calls.Load())
	}
	if len(orders) != 1 || orders[0].Target != target {
		t.Errorf("post-drain orders = %+v", orders)
	}
}

func TestResilientSanitize(t *testing.T) {
	city := testCity(t)
	g := city.Graph
	r := NewResilient(&flakyDisp{}, DefaultResilientConfig())
	snap := resilientSnapshot(t, city)
	closedSeg := g.Out(city.Hospitals[4])[0]
	openSeg := g.Out(city.Hospitals[5])[0]
	snap.Cost = sim.RescueCost{Base: oneClosed{closedSeg}}
	in := []sim.Order{
		{Vehicle: 99, Target: openSeg},                                         // unknown vehicle
		{Vehicle: 0, Target: roadnet.SegmentID(1 << 28)},                       // out-of-range
		{Vehicle: 0, Target: openSeg},                                          // good
		{Vehicle: 0, Target: openSeg},                                          // duplicate
		{Vehicle: 1, Target: closedSeg, Route: []roadnet.SegmentID{closedSeg}}, // closed: remap
	}
	out := r.Sanitize(snap, in)
	if len(out) != len(in) {
		t.Fatalf("sanitized to %d orders, want %d: %+v", len(out), len(in), out)
	}
	// Malformed orders pass through untouched for the simulator to
	// reject and count; the good order stays as it is.
	for i := 0; i < 4; i++ {
		if !reflect.DeepEqual(out[i], in[i]) {
			t.Errorf("order %d = %+v, want %+v untouched", i, out[i], in[i])
		}
	}
	remapped := out[4]
	if remapped.Vehicle != 1 {
		t.Fatalf("second surviving order = %+v", remapped)
	}
	if remapped.Target == closedSeg {
		t.Error("closed target not remapped")
	}
	if remapped.Route != nil {
		t.Error("stale route should be dropped on remap")
	}
	rs := g.Segment(remapped.Target)
	if rs.Region != g.Segment(closedSeg).Region {
		t.Errorf("remap left the region: %d -> %d", g.Segment(closedSeg).Region, rs.Region)
	}
	if _, open := snap.Cost.(sim.RescueCost).Base.SegmentTime(rs); !open {
		t.Error("remap chose a closed segment")
	}
	// ToDepot orders pass through untouched.
	depot := r.Sanitize(snap, []sim.Order{{Vehicle: 0, ToDepot: true, Target: roadnet.SegmentID(1 << 28)}})
	if len(depot) != 1 || !depot[0].ToDepot {
		t.Errorf("depot order dropped: %+v", depot)
	}
}

// oneClosed closes exactly one segment.
type oneClosed struct{ seg roadnet.SegmentID }

func (c oneClosed) SegmentTime(s roadnet.Segment) (float64, bool) {
	if s.ID == c.seg {
		return 0, false
	}
	return s.FreeFlowTime(), true
}

func TestGreedyServesNearestRequests(t *testing.T) {
	city := testCity(t)
	gd := NewGreedy()
	if gd.Name() != "greedy" {
		t.Errorf("Name = %q", gd.Name())
	}
	req0 := city.Graph.Out(city.Hospitals[0])[0]
	req1 := city.Graph.Out(city.Hospitals[1])[0]
	snap := testSnapshot(t, city,
		[]roadnet.LandmarkID{city.Hospitals[0], city.Hospitals[1]},
		[]roadnet.SegmentID{req0, req1})
	orders, delay := gd.Decide(snap)
	if delay <= 0 || delay > time.Second {
		t.Errorf("delay = %v, want small positive", delay)
	}
	if len(orders) != 2 {
		t.Fatalf("orders = %d, want one per idle vehicle", len(orders))
	}
	targets := map[sim.VehicleID]roadnet.SegmentID{}
	for _, o := range orders {
		targets[o.Vehicle] = o.Target
	}
	if targets[0] != req0 || targets[1] != req1 {
		t.Errorf("greedy paired %v, want local requests {0:%d 1:%d}", targets, req0, req1)
	}
	// Busy vehicles and empty request lists produce no orders.
	snap.Vehicles[0].Phase = sim.PhaseDelivering
	snap.ActiveRequests = nil
	if orders, _ := gd.Decide(snap); len(orders) != 0 {
		t.Errorf("orders on empty request list: %+v", orders)
	}
}

func TestRegionDemandDeterministicSummation(t *testing.T) {
	city := testCity(t)
	g := city.Graph
	pred := make(map[roadnet.SegmentID]float64)
	// Many tiny floats whose sum depends on addition order if iteration
	// order leaks through.
	for i := 0; i < g.NumSegments(); i++ {
		pred[roadnet.SegmentID(i)] = 0.1 + float64(i)*1e-13
	}
	first := regionDemand(g, pred, city.NumRegions())
	for trial := 0; trial < 20; trial++ {
		if got := regionDemand(g, pred, city.NumRegions()); !equalFloats(got, first) {
			t.Fatalf("regionDemand differs across calls: %v vs %v", got, first)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestResilientDeadlineEmitsTypedEvent(t *testing.T) {
	city := testCity(t)
	target := city.Graph.Out(city.Hospitals[3])[0]
	primary := &flakyDisp{script: []string{"sleep"}, sleep: 300 * time.Millisecond, target: target}
	cfg := DefaultResilientConfig()
	cfg.DecideTimeout = 25 * time.Millisecond
	r := NewResilient(primary, cfg)

	elog, err := eventlog.Create(filepath.Join(t.TempDir(), "ev.jsonl"), eventlog.Manifest{}, eventlog.Options{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer elog.Close()
	rec := elog.Recorder("test")
	r.SetEvents(rec)

	snap := resilientSnapshot(t, city)
	r.Decide(snap) // primary sleeps past the deadline
	buf := rec.CaptureState().Buf
	if !bytes.Contains(buf, []byte(`"ev":"deadline"`)) {
		t.Fatalf("no deadline event after timeout; recorder buffer:\n%s", buf)
	}
	if !bytes.Contains(buf, []byte(`"dur_ms":25`)) {
		t.Errorf("deadline event missing the configured deadline; buffer:\n%s", buf)
	}
	if !bytes.Contains(buf, []byte(`"method":"flaky"`)) {
		t.Errorf("deadline event missing the method name; buffer:\n%s", buf)
	}
}

func TestResilientStateRoundTrip(t *testing.T) {
	city := testCity(t)
	target := city.Graph.Out(city.Hospitals[3])[0]
	cfg := DefaultResilientConfig()
	cfg.MaxFailures = 2
	snap := resilientSnapshot(t, city)

	r := NewResilient(&flakyDisp{script: []string{"panic"}, target: target}, cfg)
	r.Decide(snap) // one failure on the books
	blob, err := r.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}

	// Restored into a fresh wrapper, the failure count must carry over:
	// one more panic trips the 2-failure breaker and the next round
	// skips the primary entirely.
	fresh := &flakyDisp{script: []string{"panic", "ok"}, target: target}
	r2 := NewResilient(fresh, cfg)
	if err := r2.RestoreState(blob); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if r2.LastError() == nil {
		t.Error("restored wrapper lost the recorded failure")
	}
	r2.Decide(snap) // second failure trips the breaker
	calls := fresh.calls.Load()
	r2.Decide(snap) // breaker open: primary must not be called
	if fresh.calls.Load() != calls {
		t.Errorf("primary called during backoff after restore (calls %d -> %d)", calls, fresh.calls.Load())
	}

	if err := r2.RestoreState([]byte("not a gob blob")); err == nil {
		t.Error("RestoreState accepted garbage")
	}
}
