package mobility

import (
	"fmt"
	"math/rand"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
)

// Streamer is a streaming synthetic population: a pop.Source that
// computes every position on demand from seeded per-person generators
// instead of materializing GPS tracks. Memory is O(people) — three
// points and one hash seed per person — regardless of how many windows
// the simulation queries, which is what makes the 1M-person tier fit in
// RAM (the trace-backed pop.Store would need people x windows samples).
//
// PosAt is a pure function of (person, instant), so it is safe for
// fully concurrent use across both people and instants.
//
// The schedule model mirrors the shape of the offline generator
// (Generate) without its routing machinery: commute round trips before
// the disaster, sheltering in place during it, and a linear recovery
// ramp after — enough temporal and spatial structure to exercise the
// prediction hot path at metro scale with realistic locality.
type Streamer struct {
	cfg     Config
	home    []geo.Point
	work    []geo.Point
	commute []float64 // one-way commute duration, seconds
	seed    []uint64  // per-person jitter stream base
}

var _ pop.Source = (*Streamer)(nil)

// splitmix64 is the SplitMix64 mix function: a bijective avalanche over
// uint64 used to derive independent per-(person, day) jitter streams
// from a single scenario seed without storing any RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) * 0x1.0p-53 }

// streamCommuteSpeed is the effective door-to-door commute speed used to
// estimate trip durations from straight-line anchor distance.
const streamCommuteSpeed = 8.0 // m/s

// NewStreamer synthesizes a streaming population of cfg.NumPeople
// people over city, deterministic in cfg.Seed: home anchors are
// region-weighted jittered landmark positions and work anchors follow
// cfg.DowntownWorkShare, exactly like the offline generator's
// population stage. Building is O(people) time and memory.
func NewStreamer(city *roadnet.City, cfg Config) (*Streamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if city == nil || city.Graph.NumLandmarks() == 0 {
		return nil, fmt.Errorf("mobility: city with landmarks required")
	}
	g := city.Graph
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Anchor sampling mirrors generatePeople: non-hospital landmarks
	// grouped by region, uniform region weights, 250 m home jitter.
	isHospital := make(map[roadnet.LandmarkID]bool, len(city.Hospitals))
	for _, h := range city.Hospitals {
		isHospital[h] = true
	}
	byRegion := make(map[int][]roadnet.LandmarkID)
	var all []roadnet.LandmarkID
	g.Landmarks(func(lm roadnet.Landmark) {
		if isHospital[lm.ID] {
			return
		}
		byRegion[lm.Region] = append(byRegion[lm.Region], lm.ID)
		all = append(all, lm.ID)
	})
	var regions []int
	for r := 1; r <= city.NumRegions(); r++ {
		if len(byRegion[r]) > 0 {
			regions = append(regions, r)
		}
	}
	if len(regions) == 0 || len(all) == 0 {
		return nil, fmt.Errorf("mobility: city has no non-hospital landmarks")
	}

	n := cfg.NumPeople
	s := &Streamer{
		cfg:     cfg,
		home:    make([]geo.Point, n),
		work:    make([]geo.Point, n),
		commute: make([]float64, n),
		seed:    make([]uint64, n),
	}
	downtown := byRegion[roadnet.DowntownRegion]
	for i := 0; i < n; i++ {
		region := regions[rng.Intn(len(regions))]
		lms := byRegion[region]
		homeLM := lms[rng.Intn(len(lms))]
		home := geo.Destination(g.Landmark(homeLM).Pos, rng.Float64()*360, rng.Float64()*250)
		var workLM roadnet.LandmarkID
		if len(downtown) > 0 && rng.Float64() < cfg.DowntownWorkShare {
			workLM = downtown[rng.Intn(len(downtown))]
		} else {
			workLM = all[rng.Intn(len(all))]
		}
		work := g.Landmark(workLM).Pos
		dur := geo.FastDistance(home, work) / streamCommuteSpeed
		if dur < 120 {
			dur = 120
		}
		s.home[i] = home
		s.work[i] = work
		s.commute[i] = dur
		s.seed[i] = splitmix64(uint64(cfg.Seed) ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	}
	return s, nil
}

// NumPeople implements pop.Source.
func (s *Streamer) NumPeople() int { return len(s.home) }

// ID returns the external person ID of dense index i: synthetic IDs
// are dense.
func (s *Streamer) ID(i int) int { return i }

// IndexOf implements pop.Source.
func (s *Streamer) IndexOf(id int) int {
	if id < 0 || id >= len(s.home) {
		return -1
	}
	return id
}

// HomeRegionCounts tallies the population per region (index 0 collects
// out-of-region homes), for reporting the tier's spatial distribution.
func (s *Streamer) HomeRegionCounts(city *roadnet.City) []int {
	counts := make([]int, city.NumRegions()+1)
	for i := range s.home {
		r := city.RegionAt(s.home[i])
		if r < 0 || r >= len(counts) {
			r = 0
		}
		counts[r]++
	}
	return counts
}

// PosAt implements pop.Source. The position is computed, not looked up:
// a per-(person, day) hash decides whether the person travels that day
// and jitters the departure times, and the position interpolates along
// the home-work-home round trip. During the disaster everyone shelters
// in place; afterwards the travel probability ramps back linearly, like
// the offline generator's recovery phase.
func (s *Streamer) PosAt(i int, unixNano int64) geo.Point {
	t := time.Unix(0, unixNano).UTC()
	if t.Before(s.cfg.Start) {
		return s.home[i]
	}
	day := int(t.Sub(s.cfg.Start) / (24 * time.Hour))
	dayStart := s.cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
	noon := dayStart.Add(12 * time.Hour)
	h := splitmix64(s.seed[i] + uint64(day)*0xD1B54A32D192ED03)

	switch s.cfg.PhaseOf(noon) {
	case PhaseDuring:
		// Sheltering in place: the prediction stage sees a static,
		// home-anchored population exactly where flood exposure matters.
		return s.home[i]
	case PhaseAfter:
		daysSince := noon.Sub(s.cfg.DisasterEnd).Hours() / 24
		prob := s.cfg.AfterTripBase + s.cfg.AfterTripRecovery*daysSince
		if prob > 1 {
			prob = 1
		}
		if unit(h) >= prob {
			return s.home[i]
		}
		return s.roundTripPos(i, t, dayStart, 8*time.Hour, h)
	default: // PhaseBefore
		if unit(h) >= 0.85 {
			return s.home[i]
		}
		return s.roundTripPos(i, t, dayStart, 6*time.Hour+30*time.Minute, h)
	}
}

// roundTripPos places person i on their home-work-home round trip for a
// travel day: depart at base plus up to 3 h of jitter, work until a
// jittered 16:00-19:00 return, with commute legs interpolated at the
// person's estimated commute duration.
func (s *Streamer) roundTripPos(i int, t time.Time, dayStart time.Time, base time.Duration, h uint64) geo.Point {
	commute := time.Duration(s.commute[i] * float64(time.Second))
	depart := dayStart.Add(base + time.Duration(unit(splitmix64(h^1))*3*float64(time.Hour)))
	arrive := depart.Add(commute)
	back := dayStart.Add(16*time.Hour + time.Duration(unit(splitmix64(h^2))*3*float64(time.Hour)))
	if back.Before(arrive.Add(time.Hour)) {
		back = arrive.Add(time.Hour)
	}
	backArrive := back.Add(commute)

	switch {
	case t.Before(depart):
		return s.home[i]
	case t.Before(arrive):
		frac := t.Sub(depart).Seconds() / commute.Seconds()
		return geo.Interpolate(s.home[i], s.work[i], frac)
	case t.Before(back):
		return s.work[i]
	case t.Before(backArrive):
		frac := t.Sub(back).Seconds() / commute.Seconds()
		return geo.Interpolate(s.work[i], s.home[i], frac)
	default:
		return s.home[i]
	}
}
