package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/mobility"
	"mobirescue/internal/obs"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/svm"
	"mobirescue/internal/weather"
)

// hospitalStayRadius is how close (meters) a GPS sample must be to a
// hospital to count as "at the hospital" in the derivation pipeline.
const hospitalStayRadius = 300

// hospitalStayMin is the paper's 2-hour hospital-stay threshold.
const hospitalStayMin = 2 * time.Hour

// factorLookback is the trailing window for averaged meteorological
// factors (see weather.WindowFactors).
const factorLookback = 24 * time.Hour

// BuildSVMTrainingSet derives a labeled training set from an episode
// using the paper's methodology (Section IV-B): rescued people are found
// via the hospital-stay heuristic over the GPS traces and labeled
// positive with the disaster-related factor vector at their last
// pre-hospital position; an equal number of never-rescued people are
// sampled as negatives with factors at their home during the disaster.
func BuildSVMTrainingSet(city *roadnet.City, ep *Episode, elev func(geo.Point) float64, seed int64) (x [][]float64, y []bool, err error) {
	cfg := ep.Data.Config
	cleaned := mobility.Clean(ep.Data.Points, city.Graph.BBox().Pad(3000), 0)
	deliveries := mobility.DetectDeliveries(city.Graph, city.Hospitals, cleaned, hospitalStayRadius, hospitalStayMin)
	rescued := mobility.LabelRescued(deliveries, ep.Flood.InFloodZone)
	if len(rescued) == 0 {
		return nil, nil, fmt.Errorf("core: no rescued people detected in the training episode")
	}

	// Keep only deliveries whose pre-hospital observation falls inside
	// the disaster impact window (with a short tail); later detections
	// are routine hospital visits mislabeled by residual flooding.
	rescuedSet := make(map[int]bool, len(rescued))
	windowEnd := cfg.DisasterEnd.Add(12 * time.Hour)
	for _, d := range rescued {
		if d.PrevTime.Before(cfg.DisasterStart) || d.PrevTime.After(windowEnd) {
			continue
		}
		x = append(x, weather.WindowFactors(ep.Storm, elev, d.PrevPos, d.PrevTime, factorLookback).Vector())
		y = append(y, true)
		rescuedSet[d.PersonID] = true
	}
	numPos := len(x)
	if numPos == 0 {
		return nil, nil, fmt.Errorf("core: no in-window rescued people in the training episode")
	}

	// Negatives: never-rescued people at their home during random
	// disaster hours. A 2:1 negative ratio keeps the decision threshold
	// calibrated to the real prevalence (far fewer people need rescue
	// than not).
	rng := rand.New(rand.NewSource(seed))
	var candidates []mobility.Person
	for _, p := range ep.Data.People {
		if !rescuedSet[p.ID] {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return nil, nil, fmt.Errorf("core: every person was rescued; cannot build negatives")
	}
	span := cfg.DisasterEnd.Sub(cfg.DisasterStart)
	need := 2 * numPos
	for i := 0; i < need; i++ {
		p := candidates[rng.Intn(len(candidates))]
		t := cfg.DisasterStart.Add(time.Duration(rng.Float64() * float64(span)))
		x = append(x, weather.WindowFactors(ep.Storm, elev, p.Home, t, factorLookback).Vector())
		y = append(y, false)
	}
	return x, y, nil
}

// TrainSVM fits the rescue-decision SVM (Equation 1) on the training
// episode.
func TrainSVM(city *roadnet.City, ep *Episode, elev func(geo.Point) float64, seed int64) (*svm.Model, error) {
	return TrainSVMObserved(city, ep, elev, seed, nil)
}

// TrainSVMObserved is TrainSVM with SMO training telemetry registered in
// reg (nil reg disables telemetry, matching TrainSVM).
func TrainSVMObserved(city *roadnet.City, ep *Episode, elev func(geo.Point) float64, seed int64, reg *obs.Registry) (*svm.Model, error) {
	x, y, err := BuildSVMTrainingSet(city, ep, elev, seed)
	if err != nil {
		return nil, err
	}
	cfg := svm.DefaultConfig()
	cfg.Seed = seed
	cfg.Metrics = reg
	// A linear kernel extrapolates monotonically in the factor space
	// (more rain, more wind, lower ground -> more dangerous), which
	// transfers better across storms of different intensity than RBF.
	cfg.Kernel = svm.Linear{}
	cfg.C = 10
	model, err := svm.Train(x, y, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: training SVM: %w", err)
	}
	return model, nil
}

// Exported prediction-stage metric names (see README "Observability").
const (
	MetricPredictWindows    = "mobirescue_predict_windows_total"
	MetricPredictCacheHits  = "mobirescue_predict_cache_hits_total"
	MetricPredictCacheMiss  = "mobirescue_predict_cache_misses_total"
	MetricPredictCacheEvict = "mobirescue_predict_cache_evictions_total"
	MetricPredictPersons    = "mobirescue_predict_persons_total"
	MetricPredictPositives  = "mobirescue_predict_positives_total"
	MetricPredictSeconds    = "mobirescue_predict_window_seconds"
)

// segMemo memoizes one person's last evaluated position: the altitude
// factor, the nearest road segment (resolved lazily, only once the
// person is predicted positive), and the last exact SVM margin computed
// there with the instant and cache epoch it was computed at. People are
// stationary for most 5-minute windows, so the elevation model and the
// spatial-index ring search are skipped whenever the position is
// unchanged, and the margin certifies the decision of later windows
// (see certifies). A memo is immutable once published; the pointer is
// swapped atomically because concurrent Predict calls for different
// windows may touch the same person, so no reader ever pairs one
// position's margin with another position. Racing writers store equal
// position fields and equally valid (margin, at) pairs. Memos live in a
// dense index-addressed slice (one atomic pointer per person), not a
// map — at metro scale a map-keyed memo is O(people) of bucket overhead
// plus a hash per lookup.
type segMemo struct {
	pos      geo.Point
	alt      float64
	margin   float64 // NaN when no finite margin is kept
	at       int64   // unix nanoseconds margin was computed at
	epoch    uint64  // ResetCache epoch margin was computed in
	seg      roadnet.SegmentID
	resolved bool // seg is valid
}

// marginSlack covers the floating-point rounding of the two exact
// evaluations a reuse compares (see certifies), per unit of |rawB|+1.
// Each margin is rawB plus three products whose factors are 25-term
// means; their rounding error is a few dozen ulps of the largest term,
// about 1e-13 for the trained model (|rawB| ≈ 24, terms below ~50).
// 1e-6·(|rawB|+1) ≈ 2.5e-5 exceeds that by about 10⁸ and stays below 0.1%
// of one 5-minute window's drift bound; it holds while every term
// stays below ~10⁸·(|rawB|+1).
const marginSlack = 1e-6

// predictScratch is the per-worker reusable window scratch: the SVM
// workspace plus a flat per-segment count column with its touched list.
// The hot per-person loop increments counts[seg] — no map operations —
// and the touched list turns the column back into the (sparse) result
// map afterwards. Pooled so steady-state windows allocate only their
// result maps.
type predictScratch struct {
	ws      *svm.Workspace
	counts  []float64
	touched []roadnet.SegmentID
}

// predictEntry is one singleflight window-cache slot: the first caller
// for a key computes val and closes ready; every other caller blocks on
// ready instead of duplicating the window computation.
type predictEntry struct {
	ready chan struct{}
	val   map[roadnet.SegmentID]float64
}

// predictMetrics holds the provider's optional telemetry handles; the
// zero value (all nil) is a free no-op.
type predictMetrics struct {
	windows   *obs.Counter
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	persons   *obs.Counter
	positives *obs.Counter
	latency   *obs.Histogram
}

// PredictProvider implements the paper's stage 2 at query time: given the
// real-time distribution of people (from their GPS traces) and the
// current disaster-related factors, it applies the SVM per person and
// counts predicted rescue requests per road segment (Equation 2).
//
// Queries run the prediction fast path: a storm series resolved once
// per window (weather.FactorIndex.SeriesInto) and evaluated per person
// without locks, zero-allocation SVM decisions
// (svm.Model.DecisionInto), index-addressed memoized altitude and
// nearest-segment lookups for stationary people, certified reuse of a
// stationary person's last exact margin (see certifies), and a person
// loop over a columnar pop.Source sharded along the region plan
// (pop.Regions — the paper's council districts) across SetWorkers
// goroutines with per-shard accumulators merged in fixed shard order.
// A reused margin's sign is provably the exact decision's, and
// per-person counts are small integers, so the merged float64 sums are
// exact under any partition — the predicted distribution is
// byte-identical for any worker count and identical to the
// pre-columnar per-track path. Windows are cached behind a singleflight
// so concurrent callers for the same instant compute once; the cache is
// bounded (entries older than the episode horizon, and beyond a hard
// cap, are evicted). The provider is safe for concurrent use.
type PredictProvider struct {
	model   *svm.Model
	storm   weather.Field
	factors *weather.FactorIndex
	elev    func(geo.Point) float64

	src pop.Source
	// segs[i] memoizes person i's last nearest-segment resolution.
	segs       []atomic.Pointer[segMemo]
	plan       *pop.Regions
	segRegion  []int32 // region per segment, for RegionTotals
	numRegions int
	index      *roadnet.SpatialIndex
	workers    int
	scratch    sync.Pool // of *predictScratch

	// horizon bounds the cache: keys older than (newest key - horizon)
	// are evicted. Defaults to the episode observation window plus the
	// factor lookback.
	horizon    time.Duration
	maxEntries int

	mu    sync.Mutex
	cache map[int64]*predictEntry

	met predictMetrics
	// Local cumulative cache tallies for the flight recorder's timing
	// mode: the obs counters are registry-global, but a pred_cache event
	// needs this provider's own totals.
	locHits, locMisses atomic.Int64
	// regTotals is a one-entry cache for RegionTotals: every dispatcher
	// round in a window queries the same instant, and the totals are
	// deterministic, so racing writers store equal values.
	regTotals atomic.Pointer[regionTotalsEntry]

	// rate bounds how fast any person's margin can drift per nanosecond
	// at a fixed position (+Inf disables reuse); slack covers rounding.
	// epoch advances on ResetCache, which forgets every kept margin.
	rate, slack float64
	epoch       atomic.Uint64
}

// regionTotalsEntry caches one instant's per-region totals.
type regionTotalsEntry struct {
	key    int64
	totals []float64
}

// NewPredictProvider builds the provider over an episode's people
// traces, flattened into a columnar pop.Store.
func NewPredictProvider(city *roadnet.City, ep *Episode, model *svm.Model, elev func(geo.Point) float64) (*PredictProvider, error) {
	if model == nil {
		return nil, fmt.Errorf("core: SVM model required")
	}
	if len(ep.Data.Points) == 0 {
		return nil, fmt.Errorf("core: episode has no GPS points")
	}
	b := pop.NewBuilder()
	for _, pt := range ep.Data.Points {
		b.Add(pt.PersonID, pt.Time, pt.Pos)
	}
	store, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: building population store: %w", err)
	}
	horizon := time.Duration(ep.Data.Config.Days)*24*time.Hour + factorLookback
	return NewPredictProviderFromSource(city, store, model, ep.Storm, elev, horizon)
}

// NewPredictProviderFromSource builds the provider over any population
// source — a columnar pop.Store of observed traces or a streaming
// synthetic population (mobility.Streamer). horizon bounds the window
// cache; <= 0 keeps a day.
func NewPredictProviderFromSource(city *roadnet.City, src pop.Source, model *svm.Model, storm weather.Field, elev func(geo.Point) float64, horizon time.Duration) (*PredictProvider, error) {
	if model == nil {
		return nil, fmt.Errorf("core: SVM model required")
	}
	if src == nil || src.NumPeople() == 0 {
		return nil, fmt.Errorf("core: population source has no people")
	}
	if horizon <= 0 {
		horizon = 24 * time.Hour
	}
	n := src.NumPeople()
	g := city.Graph
	numRegions := city.NumRegions()
	// The shard plan groups people by council district so shards share
	// flood cells and spatial-index neighborhoods. Any deterministic
	// assignment works — shard boundaries never change results.
	regionOf := func(i int) int { return city.RegionAt(src.FirstPos(i)) }
	segRegion := make([]int32, g.NumSegments())
	g.Segments(func(s roadnet.Segment) { segRegion[s.ID] = int32(s.Region) })
	p := &PredictProvider{
		model:      model,
		storm:      storm,
		factors:    weather.NewFactorIndex(storm, elev, factorLookback),
		elev:       elev,
		src:        src,
		segs:       make([]atomic.Pointer[segMemo], n),
		plan:       pop.NewRegions(n, numRegions, regionOf),
		segRegion:  segRegion,
		numRegions: numRegions,
		index:      roadnet.NewSpatialIndex(g),
		horizon:    horizon,
		maxEntries: 4096,
		cache:      make(map[int64]*predictEntry),
		rate:       math.Inf(1),
	}
	// A linear model's margin is rawB + w·(P̄, W̄, altitude), and the
	// altitude of a fixed position does not drift, so the margin drifts
	// at most |w_P|·ρ_P + |w_W|·ρ_W per second. Any other kernel, or a
	// field without a bound, keeps rate at +Inf and never reuses.
	if w, b, ok := model.LinearWeights(); ok && len(w) >= 2 {
		if rp, rw := p.factors.DriftRate(); !math.IsInf(rp, 1) {
			p.rate = (math.Abs(w[0])*rp + math.Abs(w[1])*rw) / 1e9
			p.slack = marginSlack * (math.Abs(b) + 1)
		}
	}
	p.scratch.New = func() any {
		return &predictScratch{
			ws:     svm.NewWorkspace(),
			counts: make([]float64, g.NumSegments()),
		}
	}
	return p, nil
}

// SetWorkers bounds the per-window person-loop parallelism: 0 means
// GOMAXPROCS, 1 forces the serial path. The predicted distribution is
// byte-identical for any value.
func (p *PredictProvider) SetWorkers(n int) { p.workers = n }

// EnableMetrics registers the prediction-stage telemetry (window count
// and latency, cache hit/miss/eviction counters, per-person decision
// counts) with reg. Nil reg is a no-op; telemetry is free when disabled.
func (p *PredictProvider) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.met = predictMetrics{
		windows:   reg.Counter(MetricPredictWindows, "Prediction windows computed (cache misses that ran the person loop)."),
		hits:      reg.Counter(MetricPredictCacheHits, "Prediction window cache hits."),
		misses:    reg.Counter(MetricPredictCacheMiss, "Prediction window cache misses."),
		evictions: reg.Counter(MetricPredictCacheEvict, "Prediction windows evicted from the cache."),
		persons:   reg.Counter(MetricPredictPersons, "People classified by Predict, whether evaluated by the SVM or by a reused certified margin."),
		positives: reg.Counter(MetricPredictPositives, "Per-person decisions predicting a rescue request."),
		latency: reg.Histogram(MetricPredictSeconds,
			"Wall-clock seconds per computed prediction window.", obs.DefSecondsBuckets),
	}
}

// effectiveWorkers resolves the worker bound (always >= 1).
func (p *PredictProvider) effectiveWorkers() int {
	if p.workers > 0 {
		return p.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Predict returns the predicted number of potential rescue requests per
// segment at time t — the ñ_e distribution of Equation 2. Concurrent
// callers for the same instant share one computation; the returned map
// must be treated as read-only.
func (p *PredictProvider) Predict(t time.Time) map[roadnet.SegmentID]float64 {
	key := t.Unix()
	p.mu.Lock()
	if e, ok := p.cache[key]; ok {
		p.mu.Unlock()
		p.met.hits.Inc()
		p.locHits.Add(1)
		<-e.ready
		return e.val
	}
	e := &predictEntry{ready: make(chan struct{})}
	p.cache[key] = e
	p.evictLocked(key)
	p.mu.Unlock()
	p.met.misses.Inc()
	p.locMisses.Add(1)

	start := time.Now()
	// Close ready even if computeWindow panics (a panicking worker must
	// not strand concurrent waiters); the panic still propagates.
	defer close(e.ready)
	e.val = p.computeWindow(t)
	p.met.windows.Inc()
	p.met.latency.ObserveSince(start)
	return e.val
}

// evictLocked drops cache entries older than the horizon behind the
// newest key, plus the oldest entries over the hard cap. Called with
// p.mu held, after inserting newKey. Evicted in-flight computations
// finish normally (their entry simply becomes unreachable).
func (p *PredictProvider) evictLocked(newKey int64) {
	newest := newKey
	for k := range p.cache {
		if k > newest {
			newest = k
		}
	}
	floor := newest - int64(p.horizon/time.Second)
	evicted := 0
	for k := range p.cache {
		if k < floor {
			delete(p.cache, k)
			evicted++
		}
	}
	for len(p.cache) > p.maxEntries {
		oldest := int64(math.MaxInt64)
		for k := range p.cache {
			if k < oldest {
				oldest = k
			}
		}
		delete(p.cache, oldest)
		evicted++
	}
	if evicted > 0 {
		p.met.evictions.Add(int64(evicted))
	}
}

// computeWindow runs the per-person prediction loop for one window,
// cutting the region-ordered plan into shards bounded by the worker
// count. The window's storm series is resolved once up front and shared
// read-only by every shard. Each shard accumulates into a private map;
// shards merge in fixed plan order. Per-person counts are small
// integers, so the merged sums are exact and the result is
// byte-identical for any worker count (and for the pre-columnar
// ID-ordered partition).
func (p *PredictProvider) computeWindow(t time.Time) map[roadnet.SegmentID]float64 {
	workers := p.effectiveWorkers()
	if n := p.src.NumPeople(); workers > n {
		workers = n
	}
	series := new(weather.StormSeries)
	p.factors.SeriesInto(series, t)
	out := make(map[roadnet.SegmentID]float64)
	shards := p.plan.Shards(workers)
	if workers <= 1 || len(shards) <= 1 {
		for _, sh := range shards {
			p.predictRange(sh.Start, sh.End, t, series, out)
		}
		return out
	}
	// The plan may cut a few more shards than workers (region-aligned
	// boundaries); a semaphore keeps the requested parallelism bound.
	results := make([]map[roadnet.SegmentID]float64, len(shards))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for si, sh := range shards {
		go func(si int, sh pop.Shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			m := make(map[roadnet.SegmentID]float64)
			p.predictRange(sh.Start, sh.End, t, series, m)
			results[si] = m
		}(si, sh)
	}
	wg.Wait()
	for _, m := range results { // fixed plan order
		for seg, n := range m {
			out[seg] += n
		}
	}
	return out
}

// predictRange evaluates plan positions [start, end) at t into out,
// against the window's resolved storm series. The per-person loop
// touches only flat columns and read-only state — positions from the
// source, the shared series, pooled SVM workspace, index-addressed
// memos, and a per-segment count column — so it takes no lock and
// performs no map operations. A person whose memo holds a margin that
// certifies t keeps that margin's sign; everyone else is evaluated
// exactly, and only an exact evaluation that publishes a memo
// allocates. The sparse result map is built once from the touched list
// afterwards.
func (p *PredictProvider) predictRange(start, end int, t time.Time, series *weather.StormSeries, out map[roadnet.SegmentID]float64) {
	s := p.scratch.Get().(*predictScratch)
	at := t.UnixNano()
	epoch := p.epoch.Load()
	positives := 0
	for k := start; k < end; k++ {
		i := p.plan.At(k)
		pos := p.src.PosAt(i, at)
		m := p.segs[i].Load()
		var positive bool
		if m != nil && m.pos == pos && m.epoch == epoch && p.certifies(m.margin, at-m.at) {
			positive = m.margin >= 0
		} else {
			m, positive = p.evaluate(i, m, pos, at, epoch, series, s.ws)
		}
		if !positive {
			continue
		}
		positives++
		seg := m.seg
		if seg == roadnet.NoSegment {
			continue
		}
		if s.counts[seg] == 0 {
			s.touched = append(s.touched, seg)
		}
		s.counts[seg]++
	}
	for _, seg := range s.touched {
		out[seg] += s.counts[seg]
		s.counts[seg] = 0
	}
	s.touched = s.touched[:0]
	p.scratch.Put(s)
	p.met.persons.Add(int64(end - start))
	p.met.positives.Add(int64(positives))
}

// certifies reports whether a margin computed dt nanoseconds away from a
// query instant, at the same position, has the sign an exact evaluation
// at that instant gives: the margin drifts at most rate·|dt| there, and
// slack covers the rounding of both evaluations. A NaN margin certifies
// nothing, and nothing certifies while rate is +Inf.
func (p *PredictProvider) certifies(margin float64, dt int64) bool {
	return math.Abs(margin) > p.rate*math.Abs(float64(dt))+p.slack
}

// evaluate computes person i's exact SVM decision at pos and instant
// at, given the person's current memo m (nil, or for another position).
// It publishes one fresh memo when the person moved, when the margin is
// finite and certifies at least its own instant, or when a positive
// decision needs the nearest segment resolved, and returns the memo
// holding the segment along with the decision.
func (p *PredictProvider) evaluate(i int, m *segMemo, pos geo.Point, at int64, epoch uint64, series *weather.StormSeries, ws *svm.Workspace) (*segMemo, bool) {
	publish := m == nil || m.pos != pos
	var n segMemo
	if publish {
		n = segMemo{pos: pos, alt: weather.Altitude(p.elev, pos), margin: math.NaN()}
	} else {
		n = *m
	}
	var vec [3]float64
	vec[0], vec[1] = series.At(pos)
	vec[2] = n.alt
	margin := p.model.DecisionInto(ws, vec[:])
	positive := margin >= 0
	if !math.IsInf(margin, 0) && p.certifies(margin, 0) {
		n.margin, n.at, n.epoch = margin, at, epoch
		publish = true
	}
	if positive && !n.resolved {
		n.seg, n.resolved = p.index.NearestSegment(pos), true
		publish = true
	}
	if publish {
		m = new(segMemo)
		*m = n
		p.segs[i].Store(m)
	}
	return m, positive
}

// ResetCache drops every cached window, the RegionTotals entry, and —
// in O(1), by advancing the epoch — every kept margin, so the next
// window evaluates everyone exactly, as a fresh run does (benchmarks use
// this to measure the cold path). Position memos stay: they are pure
// functions of the position.
func (p *PredictProvider) ResetCache() {
	p.mu.Lock()
	p.cache = make(map[int64]*predictEntry)
	p.mu.Unlock()
	p.regTotals.Store(nil)
	p.epoch.Add(1)
}

// CacheLen returns the number of cached windows (including in-flight
// computations).
func (p *PredictProvider) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache)
}

// CacheCounters returns this provider's cumulative window-cache (hits,
// misses) since construction. Unlike the registry counters these are
// provider-local, so one run's flight recorder can report its own
// provider without cross-talk from concurrent systems. Because the
// cache is shared across concurrent runs, per-decide deltas are
// scheduling-dependent — the recorder only emits these as a cumulative
// timing-mode summary.
func (p *PredictProvider) CacheCounters() (hits, misses int64) {
	return p.locHits.Load(), p.locMisses.Load()
}

// NumPeople returns how many tracked people the provider predicts over.
func (p *PredictProvider) NumPeople() int { return p.src.NumPeople() }

// Source returns the population source the provider predicts over.
func (p *PredictProvider) Source() pop.Source { return p.src }

// RegionTotals returns the per-region sums of the predicted
// distribution at t: totals[r] for regions 1..NumRegions, index 0
// unused. Segments without a valid region are dropped, mirroring
// dispatch's regionDemand filter. The sums are integer-exact, so the
// totals are byte-identical to aggregating the Predict map in any
// order.
// The returned slice is shared and must not be mutated.
func (p *PredictProvider) RegionTotals(t time.Time) []float64 {
	key := t.Unix()
	if e := p.regTotals.Load(); e != nil && e.key == key {
		return e.totals
	}
	pred := p.Predict(t)
	totals := make([]float64, p.numRegions+1)
	for seg, n := range pred {
		if n <= 0 || seg < 0 || int(seg) >= len(p.segRegion) {
			continue
		}
		r := int(p.segRegion[seg])
		if r < 1 || r > p.numRegions {
			continue
		}
		totals[r] += n
	}
	p.regTotals.Store(&regionTotalsEntry{key: key, totals: totals})
	return totals
}

// PredictPerson returns the SVM decision for one person at time t, used
// by the prediction-quality experiments (Figures 15–16). It shares the
// window fast path's kernel (resolve the storm series at t, evaluate
// the person against it) and is byte-identical to the per-person step
// Predict performs.
func (p *PredictProvider) PredictPerson(personID int, t time.Time) (bool, geo.Point, bool) {
	i := p.src.IndexOf(personID)
	if i < 0 {
		return false, geo.Point{}, false
	}
	pos := p.src.PosAt(i, t.UnixNano())
	var vec [3]float64
	p.factors.FactorsInto(vec[:], pos, t)
	return p.model.Predict(vec[:]), pos, true
}
