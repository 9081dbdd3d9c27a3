package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
)

// Disaster is the view of the flood the generator needs: whether a point
// is inside a flooding zone at a time, and the road-network cost model in
// effect at a time. flood.History provides both (via a thin adapter for
// CostAt); tests may use fakes.
type Disaster interface {
	InFloodZone(p geo.Point, t time.Time) bool
	CostAt(t time.Time) roadnet.CostModel
}

// DepthOracle is an optional Disaster extension exposing water depth.
// When available, the trapping hazard concentrates where and when the
// water is rising — people get trapped by rising water, not by a steady
// state — which produces the bursty request arrivals disasters actually
// exhibit.
type DepthOracle interface {
	DepthAt(p geo.Point, t time.Time) float64
}

// cannotDrive reports whether a person whose home is at h can get a
// vehicle out at time t: any substantial standing water on their street
// (well below the rescue-zone threshold) keeps the household's car
// parked. Falls back to the zone test when no depth oracle is available.
func cannotDrive(dis Disaster, h geo.Point, t time.Time) bool {
	if oracle, ok := dis.(DepthOracle); ok {
		return oracle.DepthAt(h, t) > 0.35
	}
	return dis.InFloodZone(h, t)
}

// trapHazardAt returns the per-hour trapping probability for a person at
// home h at time t: the base hazard, scaled up while the water is rising
// quickly and down in steady state when a depth oracle is available.
func trapHazardAt(dis Disaster, base float64, h geo.Point, t time.Time) float64 {
	oracle, ok := dis.(DepthOracle)
	if !ok {
		return base
	}
	rise := oracle.DepthAt(h, t) - oracle.DepthAt(h, t.Add(-time.Hour))
	if rise < 0 {
		rise = 0
	}
	// rise is in meters/hour; a fast rise of ~0.1 m/h more than doubles
	// the hazard, a steady state halves it.
	factor := 0.5 + 15*rise
	if factor > 4 {
		factor = 4
	}
	return base * factor
}

// episode is one piece of a person's timeline: a movement from FromPos to
// ToPos over [Start, End). Between episodes the person holds the previous
// episode's ToPos.
type episode struct {
	start, end time.Time
	fromPos    geo.Point
	toPos      geo.Point
	moving     bool
}

// timeline is a person's chronologically sorted episode list.
type timeline struct {
	home     geo.Point
	episodes []episode
}

// positionAt returns the person's position at t.
func (tl *timeline) positionAt(t time.Time) geo.Point {
	idx := sort.Search(len(tl.episodes), func(i int) bool {
		return tl.episodes[i].start.After(t)
	}) - 1
	if idx < 0 {
		return tl.home
	}
	ep := tl.episodes[idx]
	if t.Before(ep.end) && ep.moving {
		frac := t.Sub(ep.start).Seconds() / ep.end.Sub(ep.start).Seconds()
		return geo.Interpolate(ep.fromPos, ep.toPos, frac)
	}
	if t.Before(ep.end) {
		return ep.fromPos
	}
	return ep.toPos
}

// routeCache memoizes one router per simulated day. Per-source
// shortest-path trees ride on each router's own tree cache
// (roadnet.Router.CachedTree): a day's router never rebinds its cost
// model, so its tree generation never changes and every tree computed
// for that day stays a hit for the rest of the run — the same
// memoization the private (day, src) tree map here used to do by hand.
type routeCache struct {
	g       *roadnet.Graph
	dis     Disaster
	cfg     Config
	routers map[int]*roadnet.Router
}

func newRouteCache(g *roadnet.Graph, dis Disaster, cfg Config) *routeCache {
	return &routeCache{
		g: g, dis: dis, cfg: cfg,
		routers: make(map[int]*roadnet.Router),
	}
}

func (rc *routeCache) router(day int) *roadnet.Router {
	if r, ok := rc.routers[day]; ok {
		return r
	}
	noon := rc.cfg.Start.Add(time.Duration(day)*24*time.Hour + 12*time.Hour)
	r := roadnet.NewRouter(rc.g, rc.dis.CostAt(noon))
	rc.routers[day] = r
	return r
}

// route returns the segment path and travel time between landmarks on a
// given day, or ok=false when unreachable.
func (rc *routeCache) route(day int, from, to roadnet.LandmarkID) (segs []roadnet.SegmentID, dur time.Duration, ok bool) {
	tree := rc.router(day).CachedTree(from)
	if !tree.Reachable(to) {
		return nil, 0, false
	}
	path, err := tree.PathTo(to)
	if err != nil {
		return nil, 0, false
	}
	secs := tree.TimeTo(to)
	if secs < 120 {
		secs = 120 // minimum trip duration
	}
	return path, time.Duration(secs * float64(time.Second)), true
}

// Generate builds a synthetic mobility dataset over city under the given
// disaster.
func Generate(city *roadnet.City, dis Disaster, cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if city == nil || city.Graph.NumLandmarks() == 0 {
		return nil, fmt.Errorf("mobility: city with landmarks required")
	}
	if dis == nil {
		return nil, fmt.Errorf("mobility: disaster oracle required")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := city.Graph

	people := generatePeople(rng, city, cfg.NumPeople, cfg.DowntownWorkShare)
	rc := newRouteCache(g, dis, cfg)

	// Landmarks per region, for local (essential) trip destinations.
	regionLMs := make(map[int][]roadnet.LandmarkID)
	g.Landmarks(func(lm roadnet.Landmark) {
		regionLMs[lm.Region] = append(regionLMs[lm.Region], lm.ID)
	})

	ds := &Dataset{People: people, Config: cfg}
	traces := pop.NewBuilder()
	for i := range people {
		tl, trips, rescues := simulatePerson(rng, &people[i], city, dis, rc, regionLMs, cfg)
		ds.Trips = append(ds.Trips, trips...)
		ds.Rescues = append(ds.Rescues, rescues...)
		samplePoints(rng, traces, people[i].ID, tl, cfg)
	}
	var err error
	if ds.Traces, err = traces.Build(); err != nil {
		return nil, err
	}
	return ds, nil
}

// generatePeople creates the population with home/work anchors.
func generatePeople(rng *rand.Rand, city *roadnet.City, n int, downtownShare float64) []Person {
	g := city.Graph
	// Landmarks grouped by region for anchor sampling. Hospital landmarks
	// are excluded — nobody's home or office sits inside the hospital,
	// and anchoring people there would corrupt the hospital-stay
	// detection heuristic.
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
	regions := make([]int, 0, len(byRegion))
	weights := make([]float64, 0, len(byRegion))
	totalW := 0.0
	for r := 1; r <= city.NumRegions(); r++ {
		if len(byRegion[r]) == 0 {
			continue
		}
		w := 1.0
		regions = append(regions, r)
		weights = append(weights, w)
		totalW += w
	}
	pickRegion := func() int {
		x := rng.Float64() * totalW
		for i, w := range weights {
			x -= w
			if x <= 0 {
				return regions[i]
			}
		}
		return regions[len(regions)-1]
	}
	jitter := func(p geo.Point) geo.Point {
		return geo.Destination(p, rng.Float64()*360, rng.Float64()*250)
	}
	// Exact grid index for the isolated-landmark fallback below; built
	// lazily because most homes anchor to an outgoing segment directly.
	// SegmentIndex returns bit-identical answers to Graph.NearestSegment,
	// so populations are unchanged by the swap.
	var segIdx *roadnet.SegmentIndex
	nearestSeg := func(p geo.Point) roadnet.SegmentID {
		if segIdx == nil {
			segIdx = roadnet.NewSegmentIndex(g)
		}
		return segIdx.NearestSegment(p)
	}
	people := make([]Person, n)
	downtown := byRegion[roadnet.DowntownRegion]
	for i := range people {
		region := pickRegion()
		lms := byRegion[region]
		homeLM := lms[rng.Intn(len(lms))]
		home := jitter(g.Landmark(homeLM).Pos)
		var workLM roadnet.LandmarkID
		if len(downtown) > 0 && rng.Float64() < downtownShare {
			workLM = downtown[rng.Intn(len(downtown))]
		} else {
			workLM = all[rng.Intn(len(all))]
		}
		homeSeg := roadnet.NoSegment
		if out := g.Out(homeLM); len(out) > 0 {
			homeSeg = out[0]
		} else {
			homeSeg = nearestSeg(home)
		}
		people[i] = Person{
			ID:         i,
			Home:       home,
			HomeLM:     homeLM,
			HomeSeg:    homeSeg,
			Work:       g.Landmark(workLM).Pos,
			WorkLM:     workLM,
			HomeRegion: region,
		}
	}
	return people
}

// simulatePerson builds one person's timeline over the whole window and
// returns their trips and any rescue event.
func simulatePerson(rng *rand.Rand, p *Person, city *roadnet.City, dis Disaster, rc *routeCache, regionLMs map[int][]roadnet.LandmarkID, cfg Config) (*timeline, []Trip, []RescueEvent) {
	tl := &timeline{home: p.Home}
	var trips []Trip
	var rescues []RescueEvent
	busyUntil := cfg.Start
	rescued := false

	addTrip := func(day int, depart time.Time, from, to roadnet.LandmarkID, fromPos, toPos geo.Point) (time.Time, bool) {
		if from == to {
			return depart, false // zero-length "trip"
		}
		segs, dur, ok := rc.route(day, from, to)
		if !ok || dur > 4*time.Hour {
			return depart, false
		}
		arrive := depart.Add(dur)
		tl.episodes = append(tl.episodes, episode{
			start: depart, end: arrive, fromPos: fromPos, toPos: toPos, moving: true,
		})
		trips = append(trips, Trip{
			PersonID: p.ID, Depart: depart,
			FromLM: from, ToLM: to, Segs: segs,
		})
		return arrive, true
	}

	for day := 0; day < cfg.Days; day++ {
		dayStart := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
		noon := dayStart.Add(12 * time.Hour)
		phase := cfg.PhaseOf(noon)

		// Trap hazard: hourly check while the disaster is active and the
		// person is at home (people shelter in place during the storm).
		if phase == PhaseDuring && !rescued {
			for h := 0; h < 24 && !rescued; h++ {
				t := dayStart.Add(time.Duration(h) * time.Hour)
				if t.Before(cfg.DisasterStart) || !t.Before(cfg.DisasterEnd) || t.Before(busyUntil) {
					continue
				}
				if !dis.InFloodZone(p.Home, t) {
					continue
				}
				if rng.Float64() >= trapHazardAt(dis, cfg.TrapHazardPerHour, p.Home, t) {
					continue
				}
				// Trapped: request now; historical rescue delivers to the
				// nearest hospital after a random delay, then a hospital
				// stay, then home.
				hospital := city.HospitalNearest(p.Home)
				if hospital == roadnet.NoLandmark {
					continue
				}
				delaySpan := cfg.DeliverDelayMax - cfg.DeliverDelayMin
				delivered := t.Add(cfg.DeliverDelayMin + time.Duration(rng.Float64()*float64(delaySpan)))
				hPos := city.Graph.Landmark(hospital).Pos
				// Transport episode (ambulance, not a personal vehicle, so
				// it is not a Trip).
				tl.episodes = append(tl.episodes, episode{
					start: delivered.Add(-15 * time.Minute), end: delivered,
					fromPos: p.Home, toPos: hPos, moving: true,
				})
				release := delivered.Add(cfg.HospitalStay)
				tl.episodes = append(tl.episodes, episode{
					start: release, end: release.Add(30 * time.Minute),
					fromPos: hPos, toPos: p.Home, moving: true,
				})
				rescues = append(rescues, RescueEvent{
					PersonID:    p.ID,
					RequestTime: t,
					Seg:         p.HomeSeg,
				})
				busyUntil = release.Add(30 * time.Minute)
				rescued = true
			}
			if rescued {
				continue
			}
		}

		// Trip-making for the day.
		switch phase {
		case PhaseBefore:
			if rng.Float64() < 0.85 { // commuting weekday
				depart := dayStart.Add(6*time.Hour + 30*time.Minute +
					time.Duration(rng.Float64()*3*float64(time.Hour)))
				if !depart.Before(busyUntil) {
					if arrive, ok := addTrip(day, depart, p.HomeLM, p.WorkLM, p.Home, p.Work); ok {
						back := dayStart.Add(16*time.Hour +
							time.Duration(rng.Float64()*3*float64(time.Hour)))
						if back.Before(arrive.Add(time.Hour)) {
							back = arrive.Add(time.Hour)
						}
						if ret, ok := addTrip(day, back, p.WorkLM, p.HomeLM, p.Work, p.Home); ok {
							busyUntil = ret
						}
					}
				}
			}
			if rng.Float64() < cfg.LeisureTripProb {
				depart := dayStart.Add(19*time.Hour +
					time.Duration(rng.Float64()*2*float64(time.Hour)))
				if !depart.Before(busyUntil) {
					dest := randomLandmark(rng, rc.g)
					if arrive, ok := addTrip(day, depart, p.HomeLM, dest, p.Home, rc.g.Landmark(dest).Pos); ok {
						stay := arrive.Add(time.Hour)
						if ret, ok := addTrip(day, stay, dest, p.HomeLM, rc.g.Landmark(dest).Pos, p.Home); ok {
							busyUntil = ret
						}
					}
				}
			}
		case PhaseDuring:
			if rng.Float64() < cfg.DuringTripProb {
				depart := dayStart.Add(10*time.Hour +
					time.Duration(rng.Float64()*6*float64(time.Hour)))
				// People whose street is under water cannot drive; the
				// rest make short essential trips (groceries, fuel,
				// relatives) within their own district rather than
				// crossing the storm-hit city.
				if !depart.Before(busyUntil) && !cannotDrive(dis, p.Home, depart) {
					dest := localLandmark(rng, regionLMs, p.HomeRegion, rc.g)
					if arrive, ok := addTrip(day, depart, p.HomeLM, dest, p.Home, rc.g.Landmark(dest).Pos); ok {
						stay := arrive.Add(30 * time.Minute)
						if ret, ok := addTrip(day, stay, dest, p.HomeLM, rc.g.Landmark(dest).Pos, p.Home); ok {
							busyUntil = ret
						}
					}
				}
			}
		case PhaseAfter:
			daysSince := noon.Sub(cfg.DisasterEnd).Hours() / 24
			prob := cfg.AfterTripBase + cfg.AfterTripRecovery*daysSince
			if prob > 1 {
				prob = 1
			}
			if rng.Float64() < prob {
				depart := dayStart.Add(8*time.Hour +
					time.Duration(rng.Float64()*8*float64(time.Hour)))
				// Flooded-in people still cannot drive until the water
				// recedes from their street.
				if !depart.Before(busyUntil) && !cannotDrive(dis, p.Home, depart) {
					if arrive, ok := addTrip(day, depart, p.HomeLM, p.WorkLM, p.Home, p.Work); ok {
						back := arrive.Add(4 * time.Hour)
						if ret, ok := addTrip(day, back, p.WorkLM, p.HomeLM, p.Work, p.Home); ok {
							busyUntil = ret
						}
					}
				}
			}
		}
	}
	sort.Slice(tl.episodes, func(i, j int) bool {
		return tl.episodes[i].start.Before(tl.episodes[j].start)
	})
	return tl, trips, rescues
}

func randomLandmark(rng *rand.Rand, g *roadnet.Graph) roadnet.LandmarkID {
	return roadnet.LandmarkID(rng.Intn(g.NumLandmarks()))
}

// localLandmark picks a destination within the person's home region,
// falling back to anywhere in the city for regions without landmarks.
func localLandmark(rng *rand.Rand, regionLMs map[int][]roadnet.LandmarkID, region int, g *roadnet.Graph) roadnet.LandmarkID {
	lms := regionLMs[region]
	if len(lms) == 0 {
		return randomLandmark(rng, g)
	}
	return lms[rng.Intn(len(lms))]
}

// samplePoints walks the window sampling the person's position at the
// paper's 0.5–2 h cadence with GPS noise, appending each sample to b.
func samplePoints(rng *rand.Rand, b *pop.Builder, personID int, tl *timeline, cfg Config) {
	span := cfg.SampleMax - cfg.SampleMin
	for t := cfg.Start; t.Before(cfg.End()); {
		pos := tl.positionAt(t)
		if cfg.GPSNoise > 0 {
			pos = geo.Destination(pos, rng.Float64()*360, math.Abs(rng.NormFloat64())*cfg.GPSNoise)
		}
		b.Add(personID, t, pos)
		t = t.Add(cfg.SampleMin + time.Duration(rng.Float64()*float64(span)))
	}
}
