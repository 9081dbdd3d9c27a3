package core

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mobirescue/internal/flood"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/serve"
	"mobirescue/internal/sim"
)

// TestSessionWorldMethods exercises the serving bridge over the real
// scenario stack: every supported dispatch method builds a session that
// advances, accepts streamed requests, and closes cleanly.
func TestSessionWorldMethods(t *testing.T) {
	sys := testSystem(t)
	world, err := NewSessionWorld(sys)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.NewService(world, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range SessionMethods {
		sess, err := svc.Create(serve.SessionSpec{Method: method})
		if err != nil {
			t.Fatalf("%s: create: %v", method, err)
		}
		res, err := sess.Advance(2)
		if err != nil {
			t.Fatalf("%s: advance: %v", method, err)
		}
		if res.Status.Progress.Window != 2 {
			t.Fatalf("%s: advanced to window %d, want 2", method, res.Status.Progress.Window)
		}
		if _, err := sess.Inject([]serve.InjectSpec{{Seg: 1, InS: 120}}); err != nil {
			t.Fatalf("%s: inject: %v", method, err)
		}
		if _, err := svc.Close(sess.ID()); err != nil {
			t.Fatalf("%s: close: %v", method, err)
		}
	}

	if _, err := svc.Create(serve.SessionSpec{Method: "no-such-method"}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := svc.Create(serve.SessionSpec{Method: "greedy", Day: 99}); err == nil {
		t.Fatal("out-of-range day accepted")
	}
}

// TestSessionTeamsBoundedByPopulation pins that a session's fleet size,
// which arrives over HTTP, cannot exceed the evaluation episode's
// population: a larger one is a 400 that leaves no session behind
// instead of a fleet allocated (or an out-of-memory crash) on request.
func TestSessionTeamsBoundedByPopulation(t *testing.T) {
	sys := testSystem(t)
	world, err := NewSessionWorld(sys)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.NewService(world, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	people := len(sys.Scenario.Eval.Data.People)
	create := func(teams int) int {
		body := fmt.Sprintf(`{"method":"greedy","teams":%d}`, teams)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/api/sessions", strings.NewReader(body)))
		return rr.Code
	}
	for _, teams := range []int{people + 1, 1 << 40} {
		if code := create(teams); code != http.StatusBadRequest {
			t.Errorf("teams %d: status %d, want %d", teams, code, http.StatusBadRequest)
		}
		if n := svc.SessionCount(); n != 0 {
			t.Fatalf("teams %d: %d sessions live after a rejected create", teams, n)
		}
	}
	if code := create(people); code != http.StatusCreated {
		t.Fatalf("teams %d (the population): status %d, want %d", people, code, http.StatusCreated)
	}
	live, _ := svc.List()
	if len(live) != 1 {
		t.Fatalf("%d sessions live, want 1", len(live))
	}
	if _, err := svc.Close(live[0].ID); err != nil {
		t.Fatal(err)
	}
}

// TestSessionWorldDeterministicRebuild pins the property Restore leans
// on: the same spec yields an identical session every time, including
// from a second world frozen off the same system.
func TestSessionWorldDeterministicRebuild(t *testing.T) {
	sys := testSystem(t)
	spec := serve.SessionSpec{Method: "mr", Seed: 3}

	run := func() serve.Status {
		world, err := NewSessionWorld(sys)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := serve.NewService(world, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := svc.Create(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Advance(3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Close(sess.ID()); err != nil {
			t.Fatal(err)
		}
		st := res.Status
		st.ID = "" // IDs are per-service sequence, not part of the contract
		return st
	}

	first := run()
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same spec produced different sessions\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestSessionWorldDrainRestore runs the drain/restore cycle through the
// real scenario world: a session advanced partway, drained, restored
// into a fresh service over a second frozen world, and finished —
// matching an undrained session window for window.
func TestSessionWorldDrainRestore(t *testing.T) {
	sys := testSystem(t)
	spec := serve.SessionSpec{Method: "mr", Seed: 5}

	newSvc := func() *serve.Service {
		world, err := NewSessionWorld(sys)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := serve.NewService(world, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}

	// Undrained reference: 2 + 2 windows with a mid-run injection.
	script := func(sess *serve.Session) serve.Status {
		if _, err := sess.Advance(2); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Inject([]serve.InjectSpec{{Seg: 2, InS: 240}}); err != nil {
			t.Fatal(err)
		}
		return sess.Status()
	}
	finish := func(svc *serve.Service, id string) serve.Status {
		sess, err := svc.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Advance(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Close(id); err != nil {
			t.Fatal(err)
		}
		return res.Status
	}

	refSvc := newSvc()
	refSess, err := refSvc.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	script(refSess)
	want := finish(refSvc, refSess.ID())

	path := filepath.Join(t.TempDir(), "core-serve.ckpt")
	preSvc := newSvc()
	preSess, err := preSvc.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	mid := script(preSess)
	if err := preSvc.Drain(path); err != nil {
		t.Fatal(err)
	}

	resSvc := newSvc()
	if err := resSvc.Restore(path); err != nil {
		t.Fatal(err)
	}
	restored, err := resSvc.Get(preSess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Status(); !reflect.DeepEqual(got.Progress, mid.Progress) {
		t.Fatalf("restored progress differs from drained progress\ndrained:  %+v\nrestored: %+v", mid.Progress, got.Progress)
	}
	got := finish(resSvc, preSess.ID())
	if !reflect.DeepEqual(want.Progress, got.Progress) {
		t.Fatalf("restored run diverged from undrained reference\nreference: %+v\nrestored:  %+v", want.Progress, got.Progress)
	}
}

// costRecorder is a dispatcher that orders nothing and keeps the
// civilian road state it was shown each window.
type costRecorder struct{ seen []roadnet.CostModel }

func (c *costRecorder) Name() string { return "cost-recorder" }

func (c *costRecorder) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	c.seen = append(c.seen, sim.Civilian(snap.Cost))
	return nil, 0
}

// TestSessionSimsShareRoadState pins the flood history's per-hour road
// state from above: two simulators over one episode and day, as two
// serve sessions are, are shown the very same *flood.RoadState in each
// window, and a window shares its state with exactly the windows of its
// hour.
func TestSessionSimsShareRoadState(t *testing.T) {
	sys := testSystem(t)
	ep := sys.Scenario.Eval
	day := ep.PeakRequestDay()
	const windows = 14
	var recs [2]costRecorder
	for i := range recs {
		cfg := sys.simConfigForDay(ep, day)
		cfg.Workers = 1
		s, err := sys.newDaySim(ep, day, cfg, ep.Disaster(sys.Scenario.City.Graph), &recs[i], 1, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Advance(context.Background(), windows); err != nil {
			t.Fatal(err)
		}
		if len(recs[i].seen) != windows {
			t.Fatalf("simulator %d decided %d windows, want %d", i, len(recs[i].seen), windows)
		}
	}
	hours := 0
	for w, cm := range recs[0].seen {
		rs, ok := cm.(*flood.RoadState)
		if !ok {
			t.Fatalf("window %d: civilian cost is %T, want *flood.RoadState", w, cm)
		}
		if recs[1].seen[w] != cm {
			t.Fatalf("window %d: the two simulators hold different road states", w)
		}
		if w == 0 || !rs.At.Equal(recs[0].seen[w-1].(*flood.RoadState).At) {
			hours++
		}
		for v := 0; v < w; v++ {
			prev := recs[0].seen[v].(*flood.RoadState)
			if (prev == rs) != prev.At.Equal(rs.At) {
				t.Fatalf("windows %d and %d: same state %v, same hour %v", v, w, prev == rs, prev.At.Equal(rs.At))
			}
		}
	}
	if hours < 2 {
		t.Fatalf("%d windows spanned %d hour(s), want at least 2", windows, hours)
	}
}
