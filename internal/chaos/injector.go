package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// Exported chaos metric names (see README "Resilience & chaos testing").
const (
	MetricSurges          = "mobirescue_chaos_surges_total"
	MetricStallsScheduled = "mobirescue_chaos_vehicle_stalls_scheduled_total"
	MetricPanicsInjected  = "mobirescue_chaos_panics_injected_total"
	MetricLatencySpikes   = "mobirescue_chaos_latency_spikes_total"
	MetricMalformedOrders = "mobirescue_chaos_malformed_orders_total"
	MetricSenseDrops      = "mobirescue_chaos_sense_drops_total"
	MetricStaleSnapshots  = "mobirescue_chaos_stale_snapshots_total"
)

// chaosMetrics are the injector's optional counters; all fields are nil
// (no-op) until EnableMetrics is called.
type chaosMetrics struct {
	panics    *obs.Counter
	spikes    *obs.Counter
	malformed *obs.Counter
	drops     *obs.Counter
	stale     *obs.Counter
}

// surge is one flash-flood event: a batch of segments closed for a
// window on top of the scheduled flood model.
type surge struct {
	at       time.Time
	until    time.Time
	segments []roadnet.SegmentID
}

// Injector holds the precomputed fault schedules of one chaotic run.
// Construction draws every random number in a fixed order, so the same
// (profile, seed, graph, window, fleet) always yields the same
// schedules. The per-round dispatcher faults consume a second RNG
// stream advanced once per Decide, which is equally deterministic for
// the single-threaded simulator.
type Injector struct {
	profile Profile
	seed    int64
	surges  []surge
	faults  []sim.VehicleFault
	met     chaosMetrics
	ev      *eventlog.Recorder
}

// NewInjector precomputes the fault schedules for one simulation window
// of the given city and fleet size.
func NewInjector(p Profile, seed int64, g *roadnet.Graph, start time.Time, duration time.Duration, vehicles int) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g == nil || g.NumSegments() == 0 {
		return nil, fmt.Errorf("chaos: graph with segments required")
	}
	if duration <= 0 {
		return nil, fmt.Errorf("chaos: duration must be positive")
	}
	in := &Injector{profile: p, seed: seed}
	if !p.Enabled() {
		return in, nil
	}
	rng := rand.New(rand.NewSource(seed))
	in.surges = buildSurges(p, rng, g, start, duration)
	in.faults = buildVehicleFaults(p, rng, start, duration, vehicles)
	return in, nil
}

// NumSurges returns how many flash-flood surges the schedule contains.
func (in *Injector) NumSurges() int { return len(in.surges) }

// EnableMetrics registers the injector's fault counters with reg. A nil
// registry is a no-op.
func (in *Injector) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter(MetricSurges, "Flash-flood surges scheduled.").Add(int64(len(in.surges)))
	reg.Counter(MetricStallsScheduled, "Vehicle breakdowns scheduled.").Add(int64(len(in.faults)))
	in.met = chaosMetrics{
		panics:    reg.Counter(MetricPanicsInjected, "Dispatcher panics injected."),
		spikes:    reg.Counter(MetricLatencySpikes, "Decision latency spikes injected."),
		malformed: reg.Counter(MetricMalformedOrders, "Malformed orders injected."),
		drops:     reg.Counter(MetricSenseDrops, "Active-request view drop faults injected."),
		stale:     reg.Counter(MetricStaleSnapshots, "Stale-snapshot faults injected."),
	}
}

// SetEvents attaches a flight-recorder stream: dispatcher/sensing
// faults become typed events as they fire. A nil recorder (the default)
// keeps every emission a single nil check. Call LogSchedule separately
// to record the precomputed surge/breakdown schedules up front.
func (in *Injector) SetEvents(rec *eventlog.Recorder) { in.ev = rec }

// LogSchedule records the injector's precomputed schedules — one surge
// event per flash flood (with its segment count and duration) — so the
// log carries the planned perturbations before the run replays them.
// Vehicle breakdowns are not pre-logged: the simulator emits a stall
// fault at the instant each one is applied.
func (in *Injector) LogSchedule(rec *eventlog.Recorder) {
	if rec == nil {
		return
	}
	for _, s := range in.surges {
		rec.Emit(eventlog.Event{
			Type: eventlog.TypeFault, Kind: "surge",
			N: len(s.segments), DurMS: s.until.Sub(s.at).Milliseconds(), T: s.at,
		})
	}
}

// emit records one fired fault when a recorder is attached.
func (in *Injector) emit(kind string) {
	if in.ev != nil {
		in.ev.Emit(eventlog.Event{Type: eventlog.TypeFault, Kind: kind})
	}
}

// buildSurges draws Poisson surge arrivals over the window and grows a
// connected segment patch around each surge's seed segment.
func buildSurges(p Profile, rng *rand.Rand, g *roadnet.Graph, start time.Time, duration time.Duration) []surge {
	if p.SurgesPerHour <= 0 {
		return nil
	}
	var out []surge
	t := 0.0 // hours into the window
	hours := duration.Hours()
	for {
		t += rng.ExpFloat64() / p.SurgesPerHour
		if t >= hours {
			break
		}
		at := start.Add(time.Duration(t * float64(time.Hour)))
		d := time.Duration(rng.ExpFloat64() * float64(p.SurgeMeanDuration))
		if d < time.Minute {
			d = time.Minute
		}
		seed := roadnet.SegmentID(rng.Intn(g.NumSegments()))
		out = append(out, surge{
			at:       at,
			until:    at.Add(d),
			segments: surgePatch(g, seed, p.SurgeSegments),
		})
	}
	return out
}

// surgePatch grows a connected patch of up to n segments from seed via
// BFS over segment endpoints — a spatially coherent flash flood rather
// than scattered closures.
func surgePatch(g *roadnet.Graph, seed roadnet.SegmentID, n int) []roadnet.SegmentID {
	if n <= 0 {
		n = 1
	}
	visited := map[roadnet.SegmentID]bool{seed: true}
	patch := []roadnet.SegmentID{seed}
	queue := []roadnet.SegmentID{seed}
	for len(queue) > 0 && len(patch) < n {
		cur := queue[0]
		queue = queue[1:]
		s := g.Segment(cur)
		// Both travel directions at both endpoints flood together.
		for _, lm := range []roadnet.LandmarkID{s.From, s.To} {
			for _, adj := range [][]roadnet.SegmentID{g.Out(lm), g.In(lm)} {
				for _, sid := range adj {
					if visited[sid] {
						continue
					}
					visited[sid] = true
					patch = append(patch, sid)
					queue = append(queue, sid)
					if len(patch) >= n {
						return patch
					}
				}
			}
		}
	}
	return patch
}

// buildVehicleFaults draws per-vehicle Poisson breakdown arrivals.
func buildVehicleFaults(p Profile, rng *rand.Rand, start time.Time, duration time.Duration, vehicles int) []sim.VehicleFault {
	if p.BreakdownsPerVehicleHour <= 0 || vehicles <= 0 {
		return nil
	}
	hours := duration.Hours()
	var out []sim.VehicleFault
	for v := 0; v < vehicles; v++ {
		t := 0.0
		for {
			t += rng.ExpFloat64() / p.BreakdownsPerVehicleHour
			if t >= hours {
				break
			}
			d := time.Duration(rng.ExpFloat64() * float64(p.BreakdownMeanDuration))
			if d < time.Minute {
				d = time.Minute
			}
			out = append(out, sim.VehicleFault{
				Vehicle:  sim.VehicleID(v),
				At:       start.Add(time.Duration(t * float64(time.Hour))),
				Duration: d,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// VehicleFaults returns the precomputed breakdown schedule, ready for
// sim.Config.VehicleFaults.
func (in *Injector) VehicleFaults() []sim.VehicleFault {
	return append([]sim.VehicleFault(nil), in.faults...)
}

// ClosedAt returns the set of surge-closed segments at time t, or nil
// when no surge is active.
func (in *Injector) ClosedAt(t time.Time) map[roadnet.SegmentID]bool {
	var closed map[roadnet.SegmentID]bool
	for _, s := range in.surges {
		if t.Before(s.at) || !t.Before(s.until) {
			continue
		}
		if closed == nil {
			closed = make(map[roadnet.SegmentID]bool)
		}
		for _, sid := range s.segments {
			closed[sid] = true
		}
	}
	return closed
}

// surgeCost is a roadnet.CostModel decorator closing the surge set on
// top of the base model.
type surgeCost struct {
	base   roadnet.CostModel
	closed map[roadnet.SegmentID]bool
}

var _ roadnet.CostModel = surgeCost{}

// SegmentTime implements roadnet.CostModel.
func (c surgeCost) SegmentTime(s roadnet.Segment) (float64, bool) {
	if c.closed[s.ID] {
		return math.Inf(1), false
	}
	if c.base == nil {
		return s.FreeFlowTime(), true
	}
	return c.base.SegmentTime(s)
}

// costProvider decorates a sim.CostProvider with the surge schedule.
type costProvider struct {
	base sim.CostProvider
	in   *Injector
}

var _ sim.CostProvider = costProvider{}

// CostAt implements sim.CostProvider.
func (p costProvider) CostAt(t time.Time) roadnet.CostModel {
	var base roadnet.CostModel = roadnet.FreeFlow{}
	if p.base != nil {
		base = p.base.CostAt(t)
	}
	closed := p.in.ClosedAt(t)
	if len(closed) == 0 {
		return base
	}
	return surgeCost{base: base, closed: closed}
}

// WrapCost layers the surge schedule on top of base. The returned
// provider should sit *under* any rescue-crawl adapter so surge
// closures stay visible to flood-aware routing as "closed", exactly
// like scheduled flood closures.
func (in *Injector) WrapCost(base sim.CostProvider) sim.CostProvider {
	if !in.profile.Enabled() || len(in.surges) == 0 {
		return base
	}
	return costProvider{base: base, in: in}
}

// NoisyPredict decorates a predicted-request-map function with
// multiplicative noise (relative stddev p.PredictNoise). The noise is
// derived from the seed and the query instant only, so it is
// deterministic regardless of call order, and iteration is keyed in
// sorted segment order so equal inputs perturb identically.
func NoisyPredict(p Profile, seed int64, fn func(time.Time) map[roadnet.SegmentID]float64) func(time.Time) map[roadnet.SegmentID]float64 {
	if !p.Enabled() || p.PredictNoise <= 0 || fn == nil {
		return fn
	}
	return func(t time.Time) map[roadnet.SegmentID]float64 {
		pred := fn(t)
		if len(pred) == 0 {
			return pred
		}
		keys := make([]roadnet.SegmentID, 0, len(pred))
		for seg := range pred {
			keys = append(keys, seg)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		rng := rand.New(rand.NewSource(seed ^ t.Unix()))
		out := make(map[roadnet.SegmentID]float64, len(pred))
		for _, seg := range keys {
			scale := 1 + p.PredictNoise*rng.NormFloat64()
			if scale < 0 {
				scale = 0
			}
			if v := pred[seg] * scale; v > 0 {
				out[seg] = v
			}
		}
		return out
	}
}
