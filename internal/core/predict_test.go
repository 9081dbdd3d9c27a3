package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"mobirescue/internal/mobility"
	"mobirescue/internal/obs"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/weather"
)

// predictWindows returns a deterministic spread of query instants over
// the evaluation episode: quiet pre-disaster, the ramp, the peak, and
// the tail, on 5-minute boundaries.
func predictWindows(sys *System) []time.Time {
	cfg := sys.Scenario.Eval.Data.Config
	return []time.Time{
		cfg.Start.Add(6 * time.Hour),
		cfg.DisasterStart.Add(-30 * time.Minute),
		cfg.DisasterStart.Add(5 * time.Minute),
		cfg.DisasterStart.Add(12 * time.Hour),
		cfg.DisasterStart.Add(36 * time.Hour),
		cfg.DisasterStart.Add(36*time.Hour + 5*time.Minute),
		cfg.DisasterEnd.Add(-time.Hour),
		cfg.DisasterEnd.Add(6 * time.Hour),
	}
}

// TestPredictParallelMatchesSerial is the determinism contract of the
// sharded person loop: the predicted distribution must be byte-identical
// for workers 1, 4, and 8 at every window (run under -race in CI).
func TestPredictParallelMatchesSerial(t *testing.T) {
	sys := testSystem(t)
	p := sys.EvalProvider
	windows := predictWindows(sys)

	baseline := make([]map[roadnet.SegmentID]float64, len(windows))
	p.SetWorkers(1)
	p.ResetCache()
	for i, at := range windows {
		baseline[i] = p.Predict(at)
	}
	defer p.SetWorkers(sys.Config.Workers)
	for _, workers := range []int{4, 8} {
		p.SetWorkers(workers)
		p.ResetCache()
		for i, at := range windows {
			got := p.Predict(at)
			if !reflect.DeepEqual(got, baseline[i]) {
				t.Fatalf("workers=%d window %v: distribution differs from serial", workers, at)
			}
		}
	}
}

// TestPredictMatchesReference pins the full fast path (indexed factors,
// zero-alloc SVM decisions, memoized segment lookup, sharded loop)
// against the retained pre-fast-path implementation: the predicted
// distribution must not change.
func TestPredictMatchesReference(t *testing.T) {
	sys := testSystem(t)
	p := sys.EvalProvider
	p.ResetCache()
	for _, at := range predictWindows(sys) {
		got := p.Predict(at)
		want := p.PredictReference(at)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %v: fast path distribution differs from reference", at)
		}
	}
}

// TestPredictSingleflight verifies concurrent callers for the same
// window share one computation (the check-then-compute race the seed
// implementation had would run the person loop once per caller).
func TestPredictSingleflight(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	// A fresh provider so the metric counters start at zero.
	p, err := NewPredictProvider(sc.City, sc.Eval, sys.SVM, sc.Elev)
	if err != nil {
		t.Fatalf("NewPredictProvider: %v", err)
	}
	reg := obs.NewRegistry()
	p.EnableMetrics(reg)
	at := sc.Eval.Data.Config.DisasterStart.Add(36 * time.Hour)

	const callers = 16
	results := make([]map[roadnet.SegmentID]float64, callers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			results[i] = p.Predict(at)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different distribution", i)
		}
	}
	snap := reg.Snapshot()
	if windows := metricValue(t, snap, MetricPredictWindows); windows != 1 {
		t.Fatalf("%d concurrent callers computed %v windows, want exactly 1", callers, windows)
	}
	if hits := metricValue(t, snap, MetricPredictCacheHits); hits != callers-1 {
		t.Fatalf("cache hits = %v, want %d", hits, callers-1)
	}
}

// TestPredictCacheEviction pins the bounded-cache contract: entries
// older than the horizon (and beyond the hard cap) are evicted, and the
// eviction counter records it.
func TestPredictCacheEviction(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	p, err := NewPredictProvider(sc.City, sc.Eval, sys.SVM, sc.Elev)
	if err != nil {
		t.Fatalf("NewPredictProvider: %v", err)
	}
	reg := obs.NewRegistry()
	p.EnableMetrics(reg)
	p.SetWorkers(1)

	cfg := sc.Eval.Data.Config
	// Horizon-based eviction: a query far beyond the horizon must push
	// out the earlier windows.
	early := cfg.Start.Add(time.Hour)
	p.Predict(early)
	if p.CacheLen() != 1 {
		t.Fatalf("cache holds %d entries after one query", p.CacheLen())
	}
	p.Predict(early.Add(p.horizon + time.Hour))
	if p.CacheLen() != 1 {
		t.Fatalf("horizon eviction kept %d entries, want 1", p.CacheLen())
	}
	if ev := metricValue(t, reg.Snapshot(), MetricPredictCacheEvict); ev < 1 {
		t.Fatalf("eviction counter = %v, want >= 1", ev)
	}

	// Hard cap: the cache never exceeds maxEntries.
	p.maxEntries = 8
	base := cfg.DisasterStart
	for i := 0; i < 50; i++ {
		p.Predict(base.Add(time.Duration(i) * 5 * time.Minute))
	}
	if n := p.CacheLen(); n > 8 {
		t.Fatalf("cache grew to %d entries despite cap 8", n)
	}
	// Re-querying an evicted window recomputes and still matches.
	again := p.Predict(base)
	if !reflect.DeepEqual(again, p.PredictReference(base)) {
		t.Fatal("recomputed evicted window differs from reference")
	}
}

// TestPredictPerson covers the per-person query path: agreement with
// the windowed fast path, stability across repeated calls, and the
// missing-person contract.
func TestPredictPerson(t *testing.T) {
	sys := testSystem(t)
	p := sys.EvalProvider
	sc := sys.Scenario
	at := sc.Eval.Data.Config.DisasterStart.Add(30 * time.Hour)

	if _, _, ok := p.PredictPerson(-12345, at); ok {
		t.Fatal("PredictPerson reported an unknown person as tracked")
	}

	// The per-person decision must agree with the reference per-person
	// step (naive factors + reference kernel sum) for every tracked
	// person, and repeated queries must be stable.
	checked := 0
	src := p.Source()
	for i := 0; i < src.NumPeople() && checked < 200; i++ {
		id := src.ID(i)
		pred, pos, ok := p.PredictPerson(id, at)
		if !ok {
			t.Fatalf("person %d: not found", id)
		}
		if pos != src.PosAt(i, at.UnixNano()) {
			t.Fatalf("person %d: position mismatch", id)
		}
		wantPred := p.model.DecisionReference(weather.WindowFactors(p.storm, p.elev, pos, at, factorLookback).Vector()) >= 0
		if pred != wantPred {
			t.Fatalf("person %d: PredictPerson=%v, reference=%v", id, pred, wantPred)
		}
		if pred2, pos2, ok2 := p.PredictPerson(id, at); pred2 != pred || pos2 != pos || !ok2 {
			t.Fatalf("person %d: unstable across repeated calls", id)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no people checked")
	}
}

// TestPredictMovingPeopleMemos covers memo invalidation for people who
// move. Over a streamed population on a pre-disaster travel day —
// commuters change position from window to window, so their altitude
// and segment memos must refresh — with the storm's impact window moved
// onto that day so factor vectors are live, Predict must equal
// PredictReference at every window for workers 1, 2 and 4 (the last
// predicting all windows concurrently, so callers for different windows
// race on the same people's memos; run under -race in CI), and the
// distribution rebuilt from PredictPerson decisions must agree with
// both.
func TestPredictMovingPeopleMemos(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	mcfg := sc.Eval.Data.Config
	mcfg.NumPeople = 400
	st, err := mobility.NewStreamer(sc.City, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	day := mcfg.Start // the streamer's day 0
	if mcfg.PhaseOf(day.Add(12*time.Hour)) != mobility.PhaseBefore {
		t.Fatalf("episode day 0 (%v) is not a pre-disaster travel day", day)
	}
	storm := *sc.Eval.Storm
	span := storm.End.Sub(storm.Start)
	storm.Start = day.Add(-span / 2)
	storm.End = storm.Start.Add(span)
	p, err := NewPredictProviderFromSource(sc.City, st, sys.SVM, &storm, sc.Elev, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The morning and evening commutes, every 10 minutes.
	var windows []time.Time
	for _, from := range []time.Duration{6 * time.Hour, 16 * time.Hour} {
		for at := day.Add(from); at.Before(day.Add(from + 4*time.Hour)); at = at.Add(10 * time.Minute) {
			windows = append(windows, at)
		}
	}
	want := make([]map[roadnet.SegmentID]float64, len(windows))
	moved, positives := 0, 0.0
	for w, at := range windows {
		want[w] = p.PredictReference(at)
		for _, n := range want[w] {
			positives += n
		}
		if w > 0 {
			for i := 0; i < st.NumPeople(); i++ {
				if st.PosAt(i, at.UnixNano()) != st.PosAt(i, windows[w-1].UnixNano()) {
					moved++
				}
			}
		}
	}
	if moved == 0 || positives == 0 {
		t.Fatalf("fixture exercises nothing: %d moves between windows, %v predicted positives", moved, positives)
	}

	check := func(workers int, w int, got map[roadnet.SegmentID]float64) {
		t.Helper()
		if !reflect.DeepEqual(got, want[w]) {
			t.Fatalf("workers=%d window %v: Predict differs from PredictReference", workers, windows[w])
		}
	}
	defer p.SetWorkers(0)
	p.SetWorkers(1)
	for w, at := range windows {
		check(1, w, p.Predict(at))
	}
	// Backwards in time: every memo written by the forward pass is stale.
	p.SetWorkers(2)
	p.ResetCache()
	for w := len(windows) - 1; w >= 0; w-- {
		check(2, w, p.Predict(windows[w]))
	}
	p.SetWorkers(4)
	p.ResetCache()
	got := make([]map[roadnet.SegmentID]float64, len(windows))
	var wg sync.WaitGroup
	for w, at := range windows {
		wg.Add(1)
		go func(w int, at time.Time) {
			defer wg.Done()
			got[w] = p.Predict(at)
		}(w, at)
	}
	wg.Wait()
	for w := range windows {
		check(4, w, got[w])
	}

	for w, at := range windows {
		fromPerson := make(map[roadnet.SegmentID]float64)
		for i := 0; i < st.NumPeople(); i++ {
			pred, pos, ok := p.PredictPerson(st.ID(i), at)
			if !ok {
				t.Fatalf("PredictPerson(%d) not found", st.ID(i))
			}
			if !pred {
				continue
			}
			if seg := p.index.NearestSegment(pos); seg != roadnet.NoSegment {
				fromPerson[seg]++
			}
		}
		if !reflect.DeepEqual(fromPerson, want[w]) {
			t.Fatalf("window %v: PredictPerson decisions disagree with Predict/PredictReference", at)
		}
	}
}

// metricValue extracts a counter value from a registry snapshot.
func metricValue(t *testing.T, snap map[string]any, name string) int {
	t.Helper()
	v, ok := snap[name]
	if !ok {
		t.Fatalf("metric %s missing from snapshot (have %v)", name, keys(snap))
	}
	switch x := v.(type) {
	case int64:
		return int(x)
	case float64:
		return int(x)
	default:
		t.Fatalf("metric %s has unexpected type %T", name, v)
		return 0
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
