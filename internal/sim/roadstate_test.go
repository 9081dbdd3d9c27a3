package sim

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
)

// hourState is one simulated hour's immutable road state: it closes
// some segments and slows the rest by a per-hour factor. It implements
// roadnet.SnapshotCost, so a router rebound within the hour keeps its
// trees.
type hourState struct {
	closed segClosure
	factor float64
}

func (h *hourState) SegmentTime(s roadnet.Segment) (float64, bool) {
	if h.closed[s.ID] {
		return math.Inf(1), false
	}
	return s.FreeFlowTime() / h.factor, true
}

func (h *hourState) SameAs(other roadnet.CostModel) bool {
	o, ok := other.(*hourState)
	return ok && o == h
}

// surgeOver closes a surge's segments on top of a base model, the way a
// chaos surge does: it is built fresh for every request and holds a
// map, so it is never the same road state as anything.
type surgeOver struct {
	base   roadnet.CostModel
	closed segClosure
}

func (c surgeOver) SegmentTime(s roadnet.Segment) (float64, bool) {
	if c.closed[s.ID] {
		return math.Inf(1), false
	}
	return c.base.SegmentTime(s)
}

// opaque hides its model's SameAs, so a router rebound to it rebuilds
// its column and drops every tree in every window.
type opaque struct{ m roadnet.CostModel }

func (o opaque) SegmentTime(s roadnet.Segment) (float64, bool) { return o.m.SegmentTime(s) }

// hourlyCost hands out one hourState per simulated hour and, between
// surgeFrom and surgeUntil, a surge over it that starts and ends mid-hour.
// With hide set, every model it hands out is opaque.
type hourlyCost struct {
	hours                 []*hourState
	surgeFrom, surgeUntil time.Time
	surge                 segClosure
	hide                  bool
}

func (p hourlyCost) CostAt(t time.Time) roadnet.CostModel {
	i := int(t.Sub(simStart) / time.Hour)
	if i >= len(p.hours) {
		i = len(p.hours) - 1
	}
	var m roadnet.CostModel = p.hours[i]
	if !t.Before(p.surgeFrom) && t.Before(p.surgeUntil) {
		m = surgeOver{base: m, closed: p.surge}
	}
	if p.hide {
		m = opaque{m}
	}
	return m
}

// newHourlyCost builds a three-hour flood whose closures and slowdowns
// change every hour, plus a surge from 01:40 to 02:20.
func newHourlyCost(g *roadnet.Graph, hide bool) hourlyCost {
	p := hourlyCost{
		surgeFrom:  simStart.Add(100 * time.Minute),
		surgeUntil: simStart.Add(140 * time.Minute),
		surge:      segClosure{},
		hide:       hide,
	}
	for h := 0; h < 3; h++ {
		st := &hourState{closed: segClosure{}, factor: 1 - 0.2*float64(h)}
		for sid := roadnet.SegmentID(h); int(sid) < g.NumSegments(); sid += 9 {
			st.closed[sid] = true
		}
		p.hours = append(p.hours, st)
	}
	for sid := roadnet.SegmentID(4); int(sid) < g.NumSegments(); sid += 6 {
		p.surge[sid] = true
	}
	return p
}

// changes counts the windows of a run of cfg whose road state differs
// from the window before: a new hour, or either window inside the surge
// (a surge model is never the same state as another).
func (p hourlyCost) changes(cfg Config) int64 {
	n := int64(0)
	key := func(t time.Time) int {
		if !t.Before(p.surgeFrom) && t.Before(p.surgeUntil) {
			return -1
		}
		return int(t.Sub(simStart) / time.Hour)
	}
	for t := cfg.Start.Add(cfg.Period); t.Before(cfg.Start.Add(cfg.Duration)); t = t.Add(cfg.Period) {
		if k := key(t); k == -1 || k != key(t.Add(-cfg.Period)) {
			n++
		}
	}
	return n
}

// keptTreesRun is one way of driving the hourly-flood scenario.
type keptTreesRun struct {
	res         *Result
	log         []byte
	dijkstras   int64 // real Dijkstra runs, from the registry
	generations int64 // tree generations started, from the registry
}

// runHourlyFlood drives the scenario to completion. With restore set,
// the simulator is captured and restored into a fresh one (with a fresh
// recorder) at every window boundary, as a resumed process would be.
func runHourlyFlood(t *testing.T, city *roadnet.City, reqs []Request, hide, restore bool) keptTreesRun {
	t.Helper()
	var buf bytes.Buffer
	lg, err := eventlog.New(&buf, eventlog.Manifest{Scale: "sim-test"}, eventlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	prov := RescueCostProvider{Base: newHourlyCost(city.Graph, hide), Crawl: 0.15}
	starts := []roadnet.Position{
		vehicleAtLandmark(t, city, city.Hospitals[0]),
		vehicleAtLandmark(t, city, city.Depot),
		vehicleAtLandmark(t, city, city.Depot),
	}
	build := func(rec *eventlog.Recorder) *Simulator {
		cfg := shortConfig()
		cfg.Events = rec
		cfg.Metrics = reg
		s, err := New(city, prov, greedyDisp{}, reqs, starts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rec := lg.Recorder("run-0")
	s := build(rec)
	ctx := context.Background()
	for {
		done, err := s.Advance(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if !restore {
			continue
		}
		blob, err := s.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		next := lg.Recorder("run-0")
		next.RestoreState(rec.CaptureState())
		rec = next
		s = build(rec)
		if err := s.RestoreState(blob); err != nil {
			t.Fatal(err)
		}
	}
	lg.Append(rec)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	return keptTreesRun{
		res:         s.Result(),
		log:         buf.Bytes(),
		dijkstras:   reg.Counter(roadnet.MetricTreeCacheMisses, "").Value(),
		generations: reg.Counter(roadnet.MetricTreeCacheEpochs, "").Value(),
	}
}

// TestKeptTreesChangeNothing is the differential pin of road-state-scoped
// trees: a run whose router keeps its trees across the windows of an
// hour must match, result for result and event-log byte for byte
// (decide events' per-window hits and misses included), a run whose
// models hide SameAs so every window rebuilds and drops every tree, and
// a run captured and restored into a fresh simulator at every window
// boundary. Only the real Dijkstra count may differ.
func TestKeptTreesChangeNothing(t *testing.T) {
	city := testCity(t)
	reqs := spreadRequests(city, 30, simStart, 150*time.Minute)
	kept := runHourlyFlood(t, city, reqs, false, false)
	rebuilt := runHourlyFlood(t, city, reqs, true, false)
	resumed := runHourlyFlood(t, city, reqs, false, true)

	if kept.dijkstras >= rebuilt.dijkstras {
		t.Errorf("kept trees ran %d Dijkstras, rebuilding ran %d; want strictly fewer", kept.dijkstras, rebuilt.dijkstras)
	}
	// Every road-state change, and only those, starts a new generation.
	cfg := shortConfig()
	if want := newHourlyCost(city.Graph, false).changes(cfg); kept.generations != want {
		t.Errorf("kept trees started %d tree generations, want one per road-state change (%d)", kept.generations, want)
	}
	if want := int64(cfg.Duration / cfg.Period); rebuilt.generations != want {
		t.Errorf("rebuilding started %d tree generations, want one per window (%d)", rebuilt.generations, want)
	}
	res := kept.res
	if res == nil || res.Resilience.Reroutes+res.Resilience.StrandedDiverts == 0 {
		t.Fatal("no reroute or divert: the fixture's closures change no route")
	}
	if !bytes.Contains(kept.log, []byte(`"misses":`)) || !bytes.Contains(kept.log, []byte(`"hits":`)) {
		t.Fatal("no decide event carries tree-cache hits and misses")
	}
	for _, other := range []struct {
		name string
		run  keptTreesRun
	}{{"rebuilt every window", rebuilt}, {"restored every window", resumed}} {
		got := other.run.res
		if !reflect.DeepEqual(res.Requests, got.Requests) || !reflect.DeepEqual(res.Rounds, got.Rounds) ||
			!reflect.DeepEqual(res.ComputeDelays, got.ComputeDelays) || res.Resilience != got.Resilience {
			t.Errorf("%s: result differs from the run that kept its trees", other.name)
		}
		if !bytes.Equal(kept.log, other.run.log) {
			t.Errorf("%s: event log differs from the run that kept its trees", other.name)
		}
	}
}
