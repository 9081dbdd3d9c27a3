package weather

import (
	"math"
	"sync"
	"time"

	"mobirescue/internal/geo"
)

// stormSample is the position-independent part of one Hurricane field
// evaluation at a fixed instant: the temporal envelope, the storm-center
// position, and the products that the per-point evaluation multiplies
// its spatial decay into. Computing it once per instant removes the
// spherical trig (CenterAt's geo.Destination) and the envelope cosine
// from every per-person query — the dominant cost of the naive
// 24-hour trailing scan, which re-derived all of it for every person.
type stormSample struct {
	center geo.Point
	// pe is PeakPrecip*envelope; PrecipAt(p) = pe * spatial(dist(p,center)).
	pe float64
	// e is the raw envelope; WindAt(p) = e*(BaseWind + windDiff*decay).
	e float64
	// zero is true when the envelope is 0 (outside the impact window):
	// both fields are exactly 0 there and the distance need not be
	// computed at all.
	zero bool
}

// FactorIndex answers WindowFactors queries over a Hurricane field in
// two steps: SeriesInto resolves the storm series of one query instant
// — the per-instant envelope/center state shared by every spatial query
// at that instant, behind a bounded memo — and StormSeries.At evaluates
// one point against it in O(samples) cheap arithmetic. Outputs are
// byte-identical to the naive WindowFactors path: the evaluation
// reproduces the exact floating-point order of Hurricane.PrecipAt /
// WindAt and the naive trailing-scan accumulation (pinned by
// TestFactorIndexMatchesNaive and TestSeriesMatchesNaive). For fields
// other than *Hurricane, and for non-positive lookbacks, the series
// transparently falls back to the naive path.
//
// A FactorIndex is safe for concurrent use.
type FactorIndex struct {
	field    Field
	hur      *Hurricane // non-nil enables the fast path
	elev     func(geo.Point) float64
	lookback time.Duration

	mu      sync.Mutex
	samples map[int64]stormSample
	// maxSamples bounds the memo; on overflow the whole map is reset
	// (entries are pure functions of time and trivially recomputed).
	maxSamples int
}

// NewFactorIndex builds an index over f with the given elevation oracle
// and trailing-average lookback (see WindowFactors). The fast path
// engages when f is a *Hurricane; any other Field (including Calm and
// test doubles) uses the naive path with identical results.
func NewFactorIndex(f Field, elev func(geo.Point) float64, lookback time.Duration) *FactorIndex {
	hur, _ := f.(*Hurricane)
	return &FactorIndex{
		field:    f,
		hur:      hur,
		elev:     elev,
		lookback: lookback,
		samples:  make(map[int64]stormSample),
		// ~28 days of 5-minute windows x 25 hourly sample offsets each;
		// samples repeat across windows so real occupancy is far lower.
		maxSamples: 1 << 15,
	}
}

// sampleLocked returns the memoized storm state at t, computing and
// caching it on miss. Called with fi.mu held.
func (fi *FactorIndex) sampleLocked(t time.Time) stormSample {
	key := t.UnixNano()
	if s, ok := fi.samples[key]; ok {
		return s
	}
	h := fi.hur
	s := stormSample{zero: true}
	if e := h.envelope(t); e != 0 {
		s = stormSample{center: h.CenterAt(t), pe: h.PeakPrecip * e, e: e}
	}
	if len(fi.samples) >= fi.maxSamples {
		fi.samples = make(map[int64]stormSample)
	}
	fi.samples[key] = s
	return s
}

// StormSeries is the storm series of one query instant t: the storm
// state at each hourly lookback instant t, t-1h, ..., t-lookback,
// resolved once (FactorIndex.SeriesInto) and then shared read-only by
// every per-point evaluation at t. Only samples with a non-zero
// envelope are kept, newest first; n counts every instant, zero ones
// included, because the trailing mean divides by it. A resolved series
// is safe for concurrent use by any number of readers; the zero value
// is ready for SeriesInto.
type StormSeries struct {
	hur      *Hurricane // nil selects the naive fallback
	windDiff float64
	live     []stormSample
	n        int

	// The naive fallback's query.
	field    Field
	t        time.Time
	lookback time.Duration
}

// SeriesInto resolves the storm series at t into s, reusing its
// storage. It takes the memo lock once, whatever the number of samples.
func (fi *FactorIndex) SeriesInto(s *StormSeries, t time.Time) {
	*s = fi.series(t, s.live[:0])
}

// series resolves the storm series at t, appending its live samples to
// live. Returning the series by value lets single-point queries keep it,
// and a stack buffer behind live, off the heap.
func (fi *FactorIndex) series(t time.Time, live []stormSample) StormSeries {
	s := StormSeries{live: live, field: fi.field, t: t, lookback: fi.lookback}
	h := fi.hur
	if h == nil || fi.lookback <= 0 {
		return s
	}
	s.hur = h
	s.windDiff = h.PeakWind - h.BaseWind
	fi.mu.Lock()
	defer fi.mu.Unlock()
	for back := time.Duration(0); back <= fi.lookback; back += time.Hour {
		s.n++
		if smp := fi.sampleLocked(t.Add(-back)); !smp.zero {
			s.live = append(s.live, smp)
		}
	}
	return s
}

// At returns the trailing-window mean precipitation and wind at p —
// byte-identical to the Precip and Wind of WindowFactors(f, elev, p, t,
// lookback) for the series' field, instant and lookback. It takes no
// lock and performs no allocation.
func (s *StormSeries) At(p geo.Point) (precip, wind float64) {
	if s.hur == nil {
		return windowMeans(s.field, p, s.t, s.lookback)
	}
	return s.eval(p)
}

// eval is the per-point kernel over a Hurricane series' live samples.
// It reads only the samples and storm parameters, so a series on the
// stack stays there.
func (s *StormSeries) eval(p geo.Point) (precip, wind float64) {
	h := s.hur
	for i := range s.live {
		smp := &s.live[i]
		d := geo.FastDistance(p, smp.center)
		// Exact FP evaluation order of Hurricane.PrecipAt:
		// (PeakPrecip*e) * spatial(d).
		precip += smp.pe * h.spatial(d)
		// Exact FP evaluation order of Hurricane.WindAt.
		decay := math.Exp(-d / (2 * h.Radius))
		wind += smp.e * (h.BaseWind + s.windDiff*decay)
	}
	// Zero samples contribute exactly +0 to the naive sums, so skipping
	// them leaves the accumulation unchanged.
	return precip / float64(s.n), wind / float64(s.n)
}

// WindowFactors returns the trailing-window-averaged factor vector at p
// and t — byte-identical to weather.WindowFactors(f, elev, p, t,
// lookback): the series at t is resolved, then p is evaluated against
// it. Lookbacks up to 24 h resolve into a stack buffer, so the query
// does not allocate.
func (fi *FactorIndex) WindowFactors(p geo.Point, t time.Time) Factors {
	var buf [25]stormSample
	s := fi.series(t, buf[:0])
	if s.hur == nil {
		return WindowFactors(fi.field, fi.elev, p, t, fi.lookback)
	}
	precip, wind := s.eval(p)
	return Factors{Precip: precip, Wind: wind, Altitude: Altitude(fi.elev, p)}
}

// FactorsInto fills vec (which must have length >= 3) with the factor
// vector in the canonical (precipitation, wind, altitude) order without
// allocating — the zero-alloc companion of Factors.Vector for
// single-point queries.
func (fi *FactorIndex) FactorsInto(vec []float64, p geo.Point, t time.Time) {
	f := fi.WindowFactors(p, t)
	vec[0] = f.Precip
	vec[1] = f.Wind
	vec[2] = f.Altitude
}
