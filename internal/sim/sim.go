// Package sim is the rescue-operations simulator substituting for the
// paper's SUMO + Flow setup: rescue-team vehicles with capacity c drive
// the flood-degraded road network, rescue requests appear according to
// ground truth, a pluggable dispatcher is invoked periodically (every
// 5 minutes in the paper) and its orders take effect only after its
// modeled computation delay — which is how the paper's ~300 s IP-solver
// latency versus <0.5 s RL inference shows up in rescue timeliness
// (Figure 13).
//
// The simulator advances in fixed steps (default 10 s). Vehicles pick up
// any active requests on the segments they traverse, divert to the
// nearest hospital when full (or when they reach their target with
// passengers aboard), and then await new orders.
package sim

import (
	"fmt"
	"log/slog"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
)

// VehicleID identifies a rescue team's vehicle.
type VehicleID int

// RequestID identifies a rescue request.
type RequestID int

// Request is one rescue request to be served (from ground truth).
type Request struct {
	ID       RequestID
	PersonID int
	Seg      roadnet.SegmentID // road segment the request appears on
	AppearAt time.Time
}

// VehiclePhase describes what a vehicle is doing.
type VehiclePhase uint8

// Vehicle phases.
const (
	PhaseIdle       VehiclePhase = iota + 1 // waiting for orders
	PhaseServing                            // driving to a target segment
	PhaseDelivering                         // driving passengers to a hospital
	PhaseToDepot                            // returning to the dispatch center
	PhaseDwell                              // stopped for pickup/dropoff
)

// String implements fmt.Stringer.
func (p VehiclePhase) String() string {
	switch p {
	case PhaseIdle:
		return "idle"
	case PhaseServing:
		return "serving"
	case PhaseDelivering:
		return "delivering"
	case PhaseToDepot:
		return "to-depot"
	case PhaseDwell:
		return "dwell"
	default:
		return "unknown"
	}
}

// Free reports whether a team in this phase takes new orders: it is
// idle, or heading back to the depot.
func (p VehiclePhase) Free() bool { return p == PhaseIdle || p == PhaseToDepot }

// Working reports whether a team in this phase is out on a task:
// driving to a target, delivering passengers, or stopped for a pickup
// or dropoff. These teams count as serving in Figure 14.
func (p VehiclePhase) Working() bool {
	return p == PhaseServing || p == PhaseDelivering || p == PhaseDwell
}

// VehicleState is the dispatcher-visible state of one vehicle.
type VehicleState struct {
	ID      VehicleID
	Pos     roadnet.Position
	Onboard int
	Phase   VehiclePhase
	// Served is the cumulative number of requests this vehicle has picked
	// up so far (the RL dispatcher's reward signal observes its delta).
	Served int
}

// RequestState is the dispatcher-visible state of an active (appeared,
// not yet picked up) request.
type RequestState struct {
	ID       RequestID
	Seg      roadnet.SegmentID
	AppearAt time.Time
}

// Snapshot is everything a dispatcher may inspect when deciding.
type Snapshot struct {
	Time     time.Time
	City     *roadnet.City
	Cost     roadnet.CostModel // current flood-aware cost model
	Router   *roadnet.Router   // router bound to Cost
	Vehicles []VehicleState
	// ActiveRequests are the appeared-and-unserved requests (the
	// on-demand view used by the Schedule baseline; prediction-based
	// methods bring their own estimate of future demand).
	ActiveRequests []RequestState
}

// Order directs one vehicle: drive to a target segment, or return to the
// depot.
type Order struct {
	Vehicle VehicleID
	Target  roadnet.SegmentID // destination segment; ignored when ToDepot
	ToDepot bool
	// Route optionally carries the dispatcher's own planned segment
	// sequence from the vehicle's current segment to Target. The
	// simulator follows it verbatim — a stale plan through flooded
	// segments costs real (crawl-speed) time, which is how a dispatcher
	// that ignores road closures exhibits the paper's Schedule behavior.
	// An invalid route falls back to simulator routing.
	Route []roadnet.SegmentID
}

// OrderFault names what makes o malformed, checked in this order: a
// vehicle outside [0, vehicles) is "bad_vehicle", a target outside
// [0, segments) on an order that is not ToDepot is "bad_target", and a
// vehicle in seen (the vehicles whose earlier orders this round were
// kept) is "duplicate". It returns "" for a well-formed order. The
// simulator rejects every malformed order and counts it by this kind.
func OrderFault(o Order, vehicles, segments int, seen map[VehicleID]bool) string {
	switch {
	case int(o.Vehicle) < 0 || int(o.Vehicle) >= vehicles:
		return "bad_vehicle"
	case !o.ToDepot && (int(o.Target) < 0 || int(o.Target) >= segments):
		return "bad_target"
	case seen[o.Vehicle]:
		return "duplicate"
	}
	return ""
}

// Dispatcher decides vehicle orders each period. Implementations live in
// internal/dispatch.
type Dispatcher interface {
	// Name identifies the method (used in results).
	Name() string
	// Decide returns the orders for this round and the computation delay
	// the method needs before those orders can take effect.
	Decide(snap *Snapshot) ([]Order, time.Duration)
}

// CostProvider yields the road-network cost model at a given time (the
// flood package's History provides this via an adapter in core).
type CostProvider interface {
	CostAt(t time.Time) roadnet.CostModel
}

// VehicleFault schedules one vehicle breakdown: the vehicle stalls in
// place from At for Duration (orders still queue and apply; it just
// cannot move until it recovers). The chaos package generates these;
// tests may hand-craft them.
type VehicleFault struct {
	Vehicle  VehicleID
	At       time.Time
	Duration time.Duration
}

// RescueCost adapts a civilian cost model for rescue vehicles: rescue
// teams are equipped to push through flooded-closed segments at crawl
// speed instead of being blocked outright, so every segment stays
// reachable — just very expensive where the flood is deep. This mirrors
// the paper's setting, where requests appear on any road segment while
// routing strongly prefers the surviving network Ẽ.
type RescueCost struct {
	Base  roadnet.CostModel
	Crawl float64 // fraction of free-flow speed on closed segments
}

var _ roadnet.SnapshotCost = RescueCost{}

// SameAs implements roadnet.SnapshotCost: other is the same road state
// when it is a RescueCost with the same crawl factor over a base that
// reports the same state. A base that is no roadnet.SnapshotCost is
// never the same state.
func (rc RescueCost) SameAs(other roadnet.CostModel) bool {
	o, ok := other.(RescueCost)
	if !ok || o.Crawl != rc.Crawl {
		return false
	}
	base, ok := rc.Base.(roadnet.SnapshotCost)
	return ok && base.SameAs(o.Base)
}

// SegmentTime implements roadnet.CostModel.
func (rc RescueCost) SegmentTime(s roadnet.Segment) (float64, bool) {
	if rc.Base == nil {
		return s.FreeFlowTime(), true
	}
	if w, open := rc.Base.SegmentTime(s); open {
		return w, true
	}
	crawl := rc.Crawl
	if crawl <= 0 {
		crawl = 0.15
	}
	return s.FreeFlowTime() / crawl, true
}

// Civilian returns the cost model in which closed means closed: the
// civilian model under a RescueCost adapter (which keeps every segment
// open at crawl speed), or cost itself when it is no such adapter.
func Civilian(cost roadnet.CostModel) roadnet.CostModel {
	if rc, ok := cost.(RescueCost); ok && rc.Base != nil {
		return rc.Base
	}
	return cost
}

// RescueCostProvider wraps a civilian CostProvider with RescueCost.
type RescueCostProvider struct {
	Base  CostProvider
	Crawl float64
}

var _ CostProvider = RescueCostProvider{}

// CostAt implements CostProvider.
func (p RescueCostProvider) CostAt(t time.Time) roadnet.CostModel {
	var base roadnet.CostModel = roadnet.FreeFlow{}
	if p.Base != nil {
		base = p.Base.CostAt(t)
	}
	return RescueCost{Base: base, Crawl: p.Crawl}
}

// StaticCost adapts a fixed cost model into a CostProvider.
type StaticCost struct{ Model roadnet.CostModel }

var _ CostProvider = StaticCost{}

// CostAt implements CostProvider.
func (s StaticCost) CostAt(time.Time) roadnet.CostModel {
	if s.Model == nil {
		return roadnet.FreeFlow{}
	}
	return s.Model
}

// Config controls a simulation run.
type Config struct {
	// Start and Duration bound the run.
	Start    time.Time
	Duration time.Duration
	// Step is the integration step.
	Step time.Duration
	// Period is the dispatch interval (5 minutes in the paper).
	Period time.Duration
	// Capacity is the per-vehicle passenger capacity c.
	Capacity int
	// PickupTime and DropTime are dwell durations.
	PickupTime, DropTime time.Duration
	// TimelyThreshold classifies timely served requests (30 minutes in
	// the paper).
	TimelyThreshold time.Duration
	// CrawlFactor is the fraction of the speed limit a vehicle manages on
	// a flooded-closed segment it was (mis)routed onto.
	CrawlFactor float64
	// VehicleFaults is an optional breakdown schedule (chaos testing):
	// each fault stalls its vehicle in place for the given duration.
	// Faults naming unknown vehicles are dropped (and counted as
	// rejections) rather than trusted.
	VehicleFaults []VehicleFault
	// Workers bounds the routing layer's parallel shortest-path tree
	// prefetching (roadnet.Router.PrefetchTrees); 0 means GOMAXPROCS, 1
	// forces serial routing. The worker count never changes results —
	// parallel prefetch only warms the road-state-scoped tree cache
	// that the sequential decision loop then reads — so any value is
	// byte-identical to Workers=1.
	Workers int
	// Metrics, when non-nil, receives run metrics (rounds, pickups,
	// dropoffs, per-method decision-latency histograms). Nil — the
	// default — disables metrics at zero cost on the hot paths.
	Metrics *obs.Registry
	// Logger, when non-nil, receives the end-of-run summary. Nil
	// disables logging entirely.
	Logger *slog.Logger
	// Events, when non-nil, receives the run's flight-recorder event
	// stream (window open/close, decide, order lifecycle, faults,
	// reroutes — see internal/obs/eventlog). The recorder belongs to
	// this run alone; the caller appends it to the shared log in
	// logical order. Nil — the default — disables recording at zero
	// cost (every emit is a single nil check).
	Events *eventlog.Recorder
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig(start time.Time) Config {
	return Config{
		Start:           start,
		Duration:        24 * time.Hour,
		Step:            10 * time.Second,
		Period:          5 * time.Minute,
		Capacity:        5,
		PickupTime:      time.Minute,
		DropTime:        2 * time.Minute,
		TimelyThreshold: 30 * time.Minute,
		CrawlFactor:     0.15,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Start.IsZero() {
		return fmt.Errorf("sim: Start must be set")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("sim: Duration must be positive")
	}
	if c.Step <= 0 || c.Step > c.Duration {
		return fmt.Errorf("sim: Step %v invalid for duration %v", c.Step, c.Duration)
	}
	if c.Period < c.Step {
		return fmt.Errorf("sim: Period %v must be at least Step %v", c.Period, c.Step)
	}
	if c.Capacity <= 0 {
		return fmt.Errorf("sim: Capacity must be positive")
	}
	if c.PickupTime < 0 || c.DropTime < 0 {
		return fmt.Errorf("sim: dwell times must be non-negative")
	}
	if c.TimelyThreshold <= 0 {
		return fmt.Errorf("sim: TimelyThreshold must be positive")
	}
	if c.CrawlFactor <= 0 || c.CrawlFactor > 1 {
		return fmt.Errorf("sim: CrawlFactor %v must be in (0,1]", c.CrawlFactor)
	}
	for i, f := range c.VehicleFaults {
		if f.Duration < 0 {
			return fmt.Errorf("sim: vehicle fault %d has negative duration", i)
		}
	}
	return nil
}

// RequestOutcome records one request's lifecycle for metrics.
type RequestOutcome struct {
	Request
	PickedUpAt  time.Time // zero when never served
	DeliveredAt time.Time // zero when never delivered
	ServedBy    VehicleID // -1 when never served
	// DrivingDelay is the time the serving vehicle drove under the order
	// that reached this request.
	DrivingDelay time.Duration
}

// Served reports whether the request was picked up.
func (o RequestOutcome) Served() bool { return !o.PickedUpAt.IsZero() }

// Timeliness is pickup time minus request time (Section V-B), zero when
// a team was already on the segment at request time.
func (o RequestOutcome) Timeliness() time.Duration {
	if !o.Served() {
		return -1
	}
	d := o.PickedUpAt.Sub(o.AppearAt)
	if d < 0 {
		return 0
	}
	return d
}

// RoundStat records one dispatch round's serving-team count (Figure 14).
type RoundStat struct {
	Time    time.Time
	Serving int
}

// Result is the full outcome of a simulation run.
type Result struct {
	Method   string
	Config   Config
	Requests []RequestOutcome
	Rounds   []RoundStat
	// ComputeDelays are the dispatcher's per-round computation delays.
	ComputeDelays []time.Duration
	// Resilience summarizes the hardening events of the run: rejected
	// orders, mid-episode re-routes, stranded diversions, and vehicle
	// stalls. All zero on a benign, well-behaved run.
	Resilience ResilienceStats
}
