package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"mobirescue/internal/mobility"
	"mobirescue/internal/obs"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/svm"
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

// PredictReference is the pre-fast-path Predict implementation — an
// uncached serial loop over the naive trailing-scan factors and the
// reference SVM kernel sum, with a fresh spatial-index lookup per
// person. It is retained as the equivalence oracle for the fast path
// (TestPredictMatchesReference and the tests after it).
func (p *PredictProvider) PredictReference(t time.Time) map[roadnet.SegmentID]float64 {
	out := make(map[roadnet.SegmentID]float64)
	unixNano := t.UnixNano()
	for i := 0; i < p.src.NumPeople(); i++ {
		pos := p.src.PosAt(i, unixNano)
		factors := weather.WindowFactors(p.storm, p.elev, pos, t, factorLookback)
		if p.model.DecisionReference(factors.Vector()) < 0 {
			continue
		}
		seg := p.index.NearestSegment(pos)
		if seg == roadnet.NoSegment {
			continue
		}
		out[seg]++
	}
	return out
}

// dropWindows forgets the cached windows but, unlike ResetCache, keeps
// every memo's margin, so the next windows reuse them.
func (p *PredictProvider) dropWindows() {
	p.mu.Lock()
	p.cache = make(map[int64]*predictEntry)
	p.mu.Unlock()
}

// smallProvider returns a provider over n people of the evaluation
// episode, taking first the people predicted positive somewhere in
// windows, so even a population of one person predicts demand.
func smallProvider(t *testing.T, sys *System, n int, windows []time.Time) *PredictProvider {
	t.Helper()
	sc := sys.Scenario
	var picked []int
	var rest []int
	for _, person := range sc.Eval.Data.People {
		positive := false
		for _, at := range windows {
			if pred, _, _ := sys.EvalProvider.PredictPerson(person.ID, at); pred {
				positive = true
			}
		}
		if positive && len(picked) < (n+1)/2 {
			picked = append(picked, person.ID)
		} else {
			rest = append(rest, person.ID)
		}
	}
	picked = append(picked, rest[:n-len(picked)]...)
	keep := make(map[int]bool, n)
	for _, id := range picked {
		keep[id] = true
	}
	traces := sc.Eval.Data.Traces
	b := pop.NewBuilder()
	for i := 0; i < traces.NumPeople(); i++ {
		if id := traces.ID(i); keep[id] {
			times, pos := traces.Samples(i)
			for k := range times {
				b.Add(id, time.Unix(0, times[k]), pos[k])
			}
		}
	}
	store, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if store.NumPeople() != n {
		t.Fatalf("small population has %d people, want %d", store.NumPeople(), n)
	}
	p, err := NewPredictProviderFromSource(sc.City, store, sys.SVM, sc.Eval.Storm, sc.Elev, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPredictParallelMatchesSerial is the determinism contract of the
// sharded person loop: the predicted distribution must be byte-identical
// for workers 1, 2, 4, and 8 at every window (run under -race in CI).
// Populations smaller than the worker count, or not divisible by it,
// cut uneven and single-person ranges; each must still equal the serial
// distribution and PredictReference.
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
	for _, workers := range []int{2, 4, 8} {
		p.SetWorkers(workers)
		p.ResetCache()
		for i, at := range windows {
			got := p.Predict(at)
			if !reflect.DeepEqual(got, baseline[i]) {
				t.Fatalf("workers=%d window %v: distribution differs from serial", workers, at)
			}
		}
	}

	for _, tc := range []struct{ people, workers int }{
		{1, 8}, {2, 8}, {3, 8}, {7, 8}, {9, 2}, {9, 4},
	} {
		sp := smallProvider(t, sys, tc.people, windows)
		positives := 0.0
		for _, at := range windows {
			sp.SetWorkers(1)
			sp.ResetCache()
			serial := sp.Predict(at)
			sp.SetWorkers(tc.workers)
			sp.ResetCache()
			if got := sp.Predict(at); !reflect.DeepEqual(got, serial) {
				t.Fatalf("people=%d workers=%d window %v: distribution differs from serial", tc.people, tc.workers, at)
			}
			if want := sp.PredictReference(at); !reflect.DeepEqual(serial, want) {
				t.Fatalf("people=%d window %v: distribution differs from PredictReference", tc.people, at)
			}
			for _, n := range serial {
				positives += n
			}
		}
		if positives == 0 {
			t.Fatalf("people=%d: no window predicts demand; the fixture splits nothing", tc.people)
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

// TestProvidersShareDatasetTraces pins that the dataset holds the only
// copy of the GPS traces: each prediction provider reads its episode's
// own store rather than a rebuilt one.
func TestProvidersShareDatasetTraces(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	if got, want := sys.EvalProvider.Source(), pop.Source(sc.Eval.Data.Traces); got != want {
		t.Error("the evaluation provider reads a copy of the evaluation traces")
	}
	if got, want := sys.TrainProvider.Source(), pop.Source(sc.Train.Data.Traces); got != want {
		t.Error("the training provider reads a copy of the training traces")
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
		id := src.(*pop.Store).ID(i)
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

// countingModel returns a shallow copy of the system's SVM — the same
// trained state — with its own evaluation counter in a fresh registry,
// so a test can count exact SVM evaluations without touching the shared
// model.
func countingModel(sys *System) (*svm.Model, *obs.Registry) {
	m := *sys.SVM
	reg := obs.NewRegistry()
	m.EnableMetrics(reg)
	return &m, reg
}

// peakDayWindows returns every 5-minute window of the evaluation
// episode's peak request day from the given offset into the day.
func peakDayWindows(sc *Scenario, from time.Duration, n int) []time.Time {
	cfg := sc.Eval.Data.Config
	day := cfg.Start.Add(time.Duration(sc.Eval.PeakRequestDay())*24*time.Hour + from)
	windows := make([]time.Time, n)
	for w := range windows {
		windows[w] = day.Add(time.Duration(w) * 5 * time.Minute)
	}
	return windows
}

// TestPredictReuseExact pins certified margin reuse: on one provider
// whose kept margins persist across passes (only the window map is
// dropped between them, never ResetCache), every 5-minute window of the
// evaluation peak day, predicted forwards, backwards, and all at once
// at workers 4, must equal PredictReference. Passes after the first
// reuse margins computed hours away in either direction, and the
// concurrent pass races windows at different instants on the same
// people's memos (run under -race in CI).
func TestPredictReuseExact(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	model, reg := countingModel(sys)
	p, err := NewPredictProvider(sc.City, sc.Eval, model, sc.Elev)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableMetrics(reg)
	windows := peakDayWindows(sc, 0, 288)
	want := make([]map[roadnet.SegmentID]float64, len(windows))
	for w, at := range windows {
		want[w] = p.PredictReference(at)
	}
	reference := metricValue(t, reg.Snapshot(), svm.MetricPredictions)
	check := func(pass string, w int, got map[roadnet.SegmentID]float64) {
		t.Helper()
		if !reflect.DeepEqual(got, want[w]) {
			t.Fatalf("%s: window %v differs from PredictReference", pass, windows[w])
		}
	}
	defer p.SetWorkers(0)
	p.SetWorkers(1)
	for w, at := range windows {
		check("forwards", w, p.Predict(at))
	}
	p.dropWindows()
	p.SetWorkers(2)
	for w := len(windows) - 1; w >= 0; w-- {
		check("backwards", w, p.Predict(windows[w]))
	}
	p.dropWindows()
	p.SetWorkers(4)
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
		check("concurrent", w, got[w])
	}

	snap := reg.Snapshot()
	exact, persons := metricValue(t, snap, svm.MetricPredictions)-reference, metricValue(t, snap, MetricPredictPersons)
	t.Logf("%d of %d person-windows evaluated exactly", exact, persons)
	if 2*exact > persons {
		t.Fatalf("fixture exercises little reuse: %d of %d person-windows evaluated exactly", exact, persons)
	}
}

// TestPredictReuseCounted pins the saving, with the counters named in
// advance: over the 120 windows of the metro span (06:00–16:00 of the
// peak day) on a 10,000-person streamer, exact SVM evaluations
// (svm.MetricPredictions) stay at most a quarter of the people
// classified (MetricPredictPersons). The first window evaluates
// everyone, and so does the first window after ResetCache. With
// weather.Calm as the field there is no drift bound, so every person is
// evaluated in every window.
func TestPredictReuseCounted(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	const people = 10_000
	mcfg := sc.Eval.Data.Config
	mcfg.NumPeople = people
	st, err := mobility.NewStreamer(sc.City, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := peakDayWindows(sc, 6*time.Hour, 120)
	provider := func(storm weather.Field) (*PredictProvider, func() (exact, persons int)) {
		t.Helper()
		model, reg := countingModel(sys)
		p, err := NewPredictProviderFromSource(sc.City, st, model, storm, sc.Elev, 0)
		if err != nil {
			t.Fatal(err)
		}
		p.EnableMetrics(reg)
		return p, func() (int, int) {
			snap := reg.Snapshot()
			return metricValue(t, snap, svm.MetricPredictions), metricValue(t, snap, MetricPredictPersons)
		}
	}

	p, counts := provider(sc.Eval.Storm)
	p.Predict(windows[0])
	if exact, _ := counts(); exact != people {
		t.Fatalf("first window evaluated %d people exactly, want all %d", exact, people)
	}
	for _, at := range windows[1:] {
		p.Predict(at)
	}
	exact, persons := counts()
	t.Logf("metro span: %d of %d person-windows evaluated exactly (%.1f%%)", exact, persons, 100*float64(exact)/float64(persons))
	if persons != len(windows)*people {
		t.Fatalf("%s = %d, want %d people x %d windows", MetricPredictPersons, persons, people, len(windows))
	}
	if 4*exact > persons {
		t.Fatalf("%d of %d person-windows evaluated exactly, want at most 25%%", exact, persons)
	}
	p.ResetCache()
	p.Predict(windows[0])
	if again, _ := counts(); again-exact != people {
		t.Fatalf("first window after ResetCache evaluated %d people exactly, want all %d", again-exact, people)
	}

	calm, calmCounts := provider(weather.Calm{})
	for _, at := range windows[:3] {
		calm.Predict(at)
	}
	if exact, persons := calmCounts(); exact != persons || persons != 3*people {
		t.Fatalf("calm field: %d exact evaluations for %d people classified, want every person in every window", exact, persons)
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
