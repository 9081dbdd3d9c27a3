package sim

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
)

// vehicle is the simulator-internal vehicle state.
type vehicle struct {
	id         VehicleID
	pos        roadnet.Position
	phase      VehiclePhase
	route      []roadnet.SegmentID // remaining route; route[0] == pos.Seg while driving
	onboard    []int               // indices into Simulator.requests
	served     int                 // cumulative pickups
	dwellUntil time.Time
	resume     VehiclePhase // phase to resume after a dwell
	orderStart time.Time    // when the current serving order's driving began
	pending    *Order       // order received while dwelling
	// stalledUntil is the breakdown-fault recovery time; the vehicle
	// cannot move before it (orders still queue and apply).
	stalledUntil time.Time
	// verbatim marks a dispatcher-supplied route the simulator follows
	// as ordered (never repaired — a stale plan through flooded
	// segments is the dispatcher's own cost, per the paper's Schedule
	// analysis). Simulator-planned routes are repaired when the flood
	// closes a segment under them.
	verbatim bool
	// goal is the landmark a delivering/depot-bound route heads for
	// (used to re-plan after a mid-route closure).
	goal roadnet.LandmarkID
}

// Simulator runs one dispatch method over one scenario day.
type Simulator struct {
	cfg      Config
	city     *roadnet.City
	costProv CostProvider
	disp     Dispatcher

	requests []RequestOutcome // sorted by AppearAt
	vehicles []*vehicle

	now         time.Time
	nextRound   time.Time
	cost        roadnet.CostModel
	router      *roadnet.Router
	activeBySeg map[roadnet.SegmentID][]int
	nextAppear  int
	// started records that the run has begun (run_start emitted, or the
	// simulator was restored from a snapshot of a run that had). It
	// guards the run_start event against double emission across
	// incremental Advance calls and snapshot resumes.
	started bool
	// finished records that the configured duration is exhausted; the
	// finalized outcome is cached in result.
	finished bool
	result   *Result

	delayed []timedOrders
	rounds  []RoundStat
	delays  []time.Duration

	faults    []VehicleFault // breakdown schedule, sorted by At
	nextFault int

	res ResilienceStats
	met simMetrics
	log *slog.Logger

	// Flight recorder (nil = disabled). window is the 1-based dispatch
	// round counter; servedCnt mirrors the cumulative pickup count so
	// window_close can report served-so-far without an O(requests) scan.
	ev        *eventlog.Recorder
	window    int
	servedCnt int
	// cstats tracks the router's tree-cache hits/misses locally when
	// recording, so decide events can carry per-window deltas; last*
	// hold the totals at the previous decide.
	cstats               *roadnet.CacheStats
	lastHits, lastMisses int64
}

// timedOrders are dispatcher orders waiting out the computation delay.
type timedOrders struct {
	at     time.Time
	orders []Order
}

// New creates a simulator. starts gives each vehicle's initial position;
// its length sets the fleet size.
func New(city *roadnet.City, costProv CostProvider, disp Dispatcher, requests []Request, starts []roadnet.Position, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if city == nil || city.Graph.NumSegments() == 0 {
		return nil, fmt.Errorf("sim: city with segments required")
	}
	if costProv == nil {
		return nil, fmt.Errorf("sim: cost provider required")
	}
	if disp == nil {
		return nil, fmt.Errorf("sim: dispatcher required")
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("sim: at least one vehicle required")
	}
	if len(city.Hospitals) == 0 {
		return nil, fmt.Errorf("sim: city has no hospitals")
	}
	s := &Simulator{
		cfg:         cfg,
		city:        city,
		costProv:    costProv,
		disp:        disp,
		activeBySeg: make(map[roadnet.SegmentID][]int),
		now:         cfg.Start,
		nextRound:   cfg.Start,
		met:         newSimMetrics(cfg.Metrics, disp.Name()),
		log:         cfg.Logger,
		ev:          cfg.Events,
	}
	if s.ev != nil {
		s.cstats = &roadnet.CacheStats{}
	}
	s.requests = make([]RequestOutcome, 0, len(requests))
	for _, r := range requests {
		if int(r.Seg) < 0 || int(r.Seg) >= city.Graph.NumSegments() {
			return nil, fmt.Errorf("sim: request %d on invalid segment %d", r.ID, r.Seg)
		}
		s.requests = append(s.requests, RequestOutcome{Request: r, ServedBy: -1})
	}
	sort.SliceStable(s.requests, func(i, j int) bool {
		return s.requests[i].AppearAt.Before(s.requests[j].AppearAt)
	})
	for i, pos := range starts {
		if int(pos.Seg) < 0 || int(pos.Seg) >= city.Graph.NumSegments() {
			return nil, fmt.Errorf("sim: vehicle %d starts on invalid segment %d", i, pos.Seg)
		}
		s.vehicles = append(s.vehicles, &vehicle{
			id: VehicleID(i), pos: pos, phase: PhaseIdle, goal: roadnet.NoLandmark,
		})
	}
	// Breakdown schedule: keep only faults naming known vehicles, in
	// chronological order. Unknown vehicles are a fault-injection input,
	// not programmer error — drop rather than trust.
	for _, f := range cfg.VehicleFaults {
		if int(f.Vehicle) < 0 || int(f.Vehicle) >= len(s.vehicles) || f.Duration <= 0 {
			continue
		}
		s.faults = append(s.faults, f)
	}
	sort.SliceStable(s.faults, func(i, j int) bool { return s.faults[i].At.Before(s.faults[j].At) })
	s.refreshCost()
	return s, nil
}

// refreshCost rebinds the cost model to the current time. A flood
// history's provider returns the same road state for every window of an
// hour, so this costs no depth recomputation after an hour's first
// window. The router is built once and kept for the whole run, and
// Rebind keeps its weight column and every cached tree while the road
// state stays the same: trees warmed in one window are shared by the
// engine and the dispatcher for the rest of the hour. A new hour, or a
// chaos surge opening or closing roads, builds a new column (one
// cost-model call per segment) and starts a new tree generation.
func (s *Simulator) refreshCost() {
	s.cost = s.costProv.CostAt(s.now)
	if s.cost == nil {
		s.cost = roadnet.FreeFlow{}
	}
	if s.router == nil {
		s.router = roadnet.NewRouter(s.city.Graph, s.cost)
		s.router.SetWorkers(s.cfg.Workers)
		s.router.EnableMetrics(s.cfg.Metrics)
		s.router.TrackCache(s.cstats)
	} else {
		s.router.Rebind(s.cost)
	}
}

// Run executes the scenario to completion and returns the collected
// result.
func (s *Simulator) Run() (*Result, error) {
	if _, err := s.Advance(context.Background(), 0); err != nil {
		return nil, err
	}
	return s.result, nil
}

// start emits the run_start event exactly once per run. A simulator
// restored mid-run (RestoreState) inherits started=true: the original
// run already emitted it.
func (s *Simulator) start() {
	if s.started {
		return
	}
	s.started = true
	if s.ev != nil {
		s.ev.Emit(eventlog.Event{
			Type: eventlog.TypeRunStart, Run: s.ev.Run(),
			Method: s.disp.Name(), T: s.cfg.Start, N: len(s.requests),
		})
	}
}

// roundDue reports whether the simulator sits on a dispatch-window
// boundary: the next stepOnce will run a dispatch round first. It is
// the stop condition of a window-bounded Advance, which makes every
// Advance stop point a valid CaptureState point.
func (s *Simulator) roundDue() bool { return !s.now.Before(s.nextRound) }

// Advance runs the simulation forward until `windows` more dispatch
// rounds have completed or the configured duration is exhausted,
// whichever comes first; windows <= 0 runs to completion. A
// window-bounded call stops exactly at the next window boundary, before
// any of that window's round work, including the cost rebind. A state
// captured there resumes with a cold router where the uninterrupted run
// may have kept trees from earlier windows of the hour; that changes no
// route (a kept tree is the one a fresh Dijkstra would compute) and no
// decide event's hits and misses (roadnet.CacheStats counts per
// window). Advance reports done=true
// once the run has ended; the finalized outcome is then available from
// Result. When ctx carries an obs tracer, each round records a
// sim.round > dispatch.decide span tree under ctx's span. The error is
// always nil.
//
// Advance is what turns the episode-scoped simulator into a resident
// one: a scenario session advances window by window on demand, ingests
// streamed requests between calls (InjectRequests), and — because every
// stop point is a window boundary — can be captured (CaptureState) and
// later resumed byte-identically. A sequence of Advance calls produces
// exactly the same results, metrics, and event stream as one Run over
// the same inputs.
func (s *Simulator) Advance(ctx context.Context, windows int) (bool, error) {
	if s.finished {
		return true, nil
	}
	s.start()
	end := s.cfg.Start.Add(s.cfg.Duration)
	ran := 0
	for s.now.Before(end) {
		if windows > 0 && ran >= windows && s.roundDue() {
			return false, nil
		}
		if s.stepOnce(ctx) {
			ran++
		}
	}
	s.complete()
	return true, nil
}

// stepOnce advances the simulation by one integration step — surfacing
// appeared requests, applying due faults, running the dispatch round
// when one is due, applying matured orders, and moving vehicles. It
// reports whether a dispatch round ran.
func (s *Simulator) stepOnce(ctx context.Context) bool {
	// Surface newly appeared requests.
	for s.nextAppear < len(s.requests) && !s.requests[s.nextAppear].AppearAt.After(s.now) {
		idx := s.nextAppear
		seg := s.requests[idx].Seg
		s.activeBySeg[seg] = append(s.activeBySeg[seg], idx)
		s.nextAppear++
	}
	// Apply breakdown faults that have come due.
	for s.nextFault < len(s.faults) && !s.faults[s.nextFault].At.After(s.now) {
		f := s.faults[s.nextFault]
		s.nextFault++
		v := s.vehicles[f.Vehicle]
		if until := f.At.Add(f.Duration); until.After(v.stalledUntil) {
			v.stalledUntil = until
		}
		s.res.VehicleStalls++
		s.met.stalls.Inc()
		if s.ev != nil {
			s.ev.Emit(eventlog.Event{
				Type: eventlog.TypeFault, Kind: "stall",
				Vehicle: int(f.Vehicle), DurMS: f.Duration.Milliseconds(), T: s.now,
			})
		}
	}
	// Dispatch round.
	roundRan := false
	if s.roundDue() {
		// Window-boundary memory reading: one stop-the-world
		// ReadMemStats per dispatch round, never per step.
		s.met.mem.Observe()
		s.refreshCost()
		// The cost model only changes at round boundaries, so this
		// is the moment routes planned under the old flood state can
		// have been invalidated.
		s.rerouteVehicles()
		s.round(ctx)
		s.nextRound = s.nextRound.Add(s.cfg.Period)
		roundRan = true
	}
	// Apply orders whose computation delay has elapsed.
	s.applyDueOrders()
	// Move vehicles.
	for _, v := range s.vehicles {
		s.stepVehicle(v)
	}
	s.met.steps.Inc()
	s.now = s.now.Add(s.cfg.Step)
	return roundRan
}

// complete finalizes the run: the Result is built and cached, outcome
// metrics and the run_end event are emitted. Idempotent.
func (s *Simulator) complete() *Result {
	if s.result != nil {
		return s.result
	}
	s.finished = true
	res := s.newResult()
	s.finishRun(res)
	s.result = res
	return res
}

// newResult builds the run's Result from the simulator's final state.
func (s *Simulator) newResult() *Result {
	return &Result{
		Method:        s.disp.Name(),
		Config:        s.cfg,
		Requests:      s.requests,
		Rounds:        s.rounds,
		ComputeDelays: s.delays,
		Resilience:    s.res,
	}
}

// Result returns the finalized outcome once the run has completed
// (Advance reported done, or Run returned), and nil while it is
// still in progress. A simulator restored from a finished run's
// snapshot rebuilds the same Result without re-emitting run_end or
// outcome metrics — the original run already did.
func (s *Simulator) Result() *Result {
	if !s.finished {
		return nil
	}
	if s.result == nil {
		s.result = s.newResult()
	}
	return s.result
}

// Progress is a simulator's live position, cheap enough to expose on a
// per-query basis from a serving session.
type Progress struct {
	Now      time.Time `json:"now"`
	Window   int       `json:"window"`   // completed dispatch windows
	Requests int       `json:"requests"` // known requests (ground truth + injected)
	Appeared int       `json:"appeared"`
	Served   int       `json:"served"`
	Active   int       `json:"active"` // appeared and not yet picked up
	Finished bool      `json:"finished"`
}

// Progress reports the simulator's live position.
func (s *Simulator) Progress() Progress {
	active := 0
	for _, idxs := range s.activeBySeg {
		for _, i := range idxs {
			if !s.requests[i].Served() {
				active++
			}
		}
	}
	return Progress{
		Now:      s.now,
		Window:   len(s.rounds),
		Requests: len(s.requests),
		Appeared: s.nextAppear,
		Served:   s.servedCnt,
		Active:   active,
		Finished: s.finished,
	}
}

// InjectRequests streams new rescue requests into a running simulation —
// the serving path's ingestion, replacing the episode-scoped array
// fixed at construction. Requests must name valid segments and appear
// at or after the simulator's current time; IDs are the caller's to
// allocate (sessions number them past the ground-truth range). The
// batch is all-or-nothing: nothing is admitted unless every request
// validates.
//
// The not-yet-appeared tail of the request table is re-sorted stably by
// appearance time, so an injection is equivalent to having constructed
// the simulator with the request present from the start — appeared
// requests, and every index held by vehicles or the active table, never
// move.
func (s *Simulator) InjectRequests(reqs []Request) error {
	if s.finished {
		return fmt.Errorf("sim: run already complete")
	}
	for _, r := range reqs {
		if int(r.Seg) < 0 || int(r.Seg) >= s.city.Graph.NumSegments() {
			return fmt.Errorf("sim: injected request %d on invalid segment %d", r.ID, r.Seg)
		}
		if r.AppearAt.Before(s.now) {
			return fmt.Errorf("sim: injected request %d appears at %v, before simulation time %v", r.ID, r.AppearAt, s.now)
		}
	}
	for _, r := range reqs {
		s.requests = append(s.requests, RequestOutcome{Request: r, ServedBy: -1})
	}
	tail := s.requests[s.nextAppear:]
	sort.SliceStable(tail, func(i, j int) bool {
		return tail[i].AppearAt.Before(tail[j].AppearAt)
	})
	return nil
}

// finishRun records end-of-run outcome metrics and the summary log line.
func (s *Simulator) finishRun(res *Result) {
	var served, timely, unserved int64
	for i := range res.Requests {
		o := &res.Requests[i]
		switch {
		case !o.Served():
			unserved++
		default:
			served++
			if o.Timeliness() <= s.cfg.TimelyThreshold {
				timely++
			}
		}
	}
	s.met.served.Add(served)
	s.met.timely.Add(timely)
	s.met.unserved.Add(unserved)
	if s.ev != nil {
		s.ev.SetWindow(0) // run summary is not a window event
		s.ev.Emit(eventlog.Event{
			Type: eventlog.TypeRunEnd, Run: s.ev.Run(), Method: res.Method,
			Served: int(served), Timely: int(timely), Unserved: int(unserved),
		})
	}
	if s.log != nil {
		s.log.Info("run complete",
			"method", res.Method,
			"requests", len(res.Requests),
			"served", served,
			"timely", timely,
			"unserved", unserved,
			"rounds", len(res.Rounds))
	}
}

// round invokes the dispatcher and queues its orders.
func (s *Simulator) round(ctx context.Context) {
	ctx, roundSpan := obs.StartSpan(ctx, "sim.round")
	defer roundSpan.End()
	snap := &Snapshot{
		Time:   s.now,
		City:   s.city,
		Cost:   s.cost,
		Router: s.router,
	}
	for _, v := range s.vehicles {
		snap.Vehicles = append(snap.Vehicles, VehicleState{
			ID: v.id, Pos: v.pos, Onboard: len(v.onboard), Phase: v.phase,
			Served: v.served,
		})
	}
	for seg, idxs := range s.activeBySeg {
		for _, i := range idxs {
			if s.requests[i].Served() {
				continue
			}
			snap.ActiveRequests = append(snap.ActiveRequests, RequestState{
				ID: s.requests[i].ID, Seg: seg, AppearAt: s.requests[i].AppearAt,
			})
		}
	}
	// Deterministic view: activeBySeg is a map, and handing dispatchers
	// a randomly ordered request list makes whole runs irreproducible
	// (tie-breaks in assignment problems flip run to run).
	sort.Slice(snap.ActiveRequests, func(i, j int) bool {
		return snap.ActiveRequests[i].ID < snap.ActiveRequests[j].ID
	})
	if s.ev != nil {
		s.window++
		s.ev.SetWindow(s.window)
		s.ev.Emit(eventlog.Event{
			Type: eventlog.TypeWindowOpen, T: s.now, Active: len(snap.ActiveRequests),
		})
	}
	_, decideSpan := obs.StartSpan(ctx, "dispatch.decide")
	decideStart := time.Now()
	orders, delay := s.disp.Decide(snap)
	decideSpan.End()
	orders = s.sanitizeOrders(orders)
	if delay < 0 {
		delay = 0
	}
	s.met.decideSeconds.ObserveSince(decideStart)
	s.met.modeledDelay.ObserveDuration(delay)
	s.met.rounds.Inc()
	s.met.orders.Add(int64(len(orders)))
	s.met.active.Set(float64(len(snap.ActiveRequests)))
	s.delays = append(s.delays, delay)
	// Serving teams (Figure 14): teams actively working a target or a
	// delivery, plus teams just ordered to one.
	servingSet := make(map[VehicleID]bool)
	for _, o := range orders {
		if !o.ToDepot {
			servingSet[o.Vehicle] = true
		}
	}
	for _, v := range s.vehicles {
		if v.phase.Working() {
			servingSet[v.id] = true
		}
	}
	s.rounds = append(s.rounds, RoundStat{Time: s.now, Serving: len(servingSet)})
	s.met.serving.Set(float64(len(servingSet)))
	if s.ev != nil {
		// Tree-cache activity attributed to this window: everything since
		// the previous decide (includes this window's reroute repairs and
		// the dispatcher's own routing), counted per window, so kept
		// trees and a cold resumed router give the same numbers.
		hits, misses := s.cstats.Totals()
		e := eventlog.Event{
			Type: eventlog.TypeDecide, Method: s.disp.Name(),
			Active: len(snap.ActiveRequests), Orders: len(orders),
			DelayMS: delay.Milliseconds(),
			Hits:    hits - s.lastHits, Misses: misses - s.lastMisses,
		}
		s.lastHits, s.lastMisses = hits, misses
		if s.ev.Timing() {
			e.LatencyNS = time.Since(decideStart).Nanoseconds()
		}
		s.ev.Emit(e)
		for _, o := range orders {
			s.ev.Emit(eventlog.Event{
				Type: eventlog.TypeOrder, Vehicle: int(o.Vehicle),
				Target: int(o.Target), ToDepot: o.ToDepot,
			})
		}
		s.ev.Emit(eventlog.Event{
			Type: eventlog.TypeWindowClose, Orders: len(orders),
			Serving: len(servingSet), Served: s.servedCnt,
		})
	}
	if len(orders) > 0 {
		s.delayed = append(s.delayed, timedOrders{at: s.now.Add(delay), orders: orders})
	}
}

// sanitizeOrders validates one round's order batch instead of trusting
// the dispatcher blindly: every order OrderFault flags is rejected
// (for a duplicate, the first order for the vehicle wins). Every
// rejection is counted in the run's resilience stats and metrics.
func (s *Simulator) sanitizeOrders(orders []Order) []Order {
	if len(orders) == 0 {
		return orders
	}
	kept := orders[:0]
	seen := make(map[VehicleID]bool, len(orders))
	for _, o := range orders {
		kind := OrderFault(o, len(s.vehicles), s.city.Graph.NumSegments(), seen)
		switch kind {
		case "":
			seen[o.Vehicle] = true
			kept = append(kept, o)
			continue
		case "bad_vehicle":
			s.res.OrdersRejectedBadVehicle++
			s.met.rejectedVehicle.Inc()
		case "bad_target":
			s.res.OrdersRejectedBadTarget++
			s.met.rejectedTarget.Inc()
		case "duplicate":
			s.res.OrdersRejectedDuplicate++
			s.met.rejectedDuplicate.Inc()
		}
		if s.ev != nil {
			s.ev.Emit(eventlog.Event{Type: eventlog.TypeOrderReject, Kind: kind, Vehicle: int(o.Vehicle)})
		}
	}
	return kept
}

// rerouteVehicles repairs simulator-planned routes invalidated by
// newly-closed segments. Dispatcher-supplied verbatim routes are left
// alone — driving a stale plan through water is the dispatcher's own
// cost, which is how the paper's Schedule baseline behaves. A vehicle
// whose destination became unreachable is diverted: delivering vehicles
// re-pick the nearest reachable hospital, others head to the depot, and
// with nowhere reachable the vehicle crawls on along its old route.
func (s *Simulator) rerouteVehicles() {
	base := Civilian(s.cost)
	g := s.city.Graph
	for _, v := range s.vehicles {
		if v.verbatim || len(v.route) < 2 {
			continue
		}
		blocked := false
		// route[0] is the segment under the vehicle; it cannot leave it,
		// so only the segments still to be entered matter.
		for _, sid := range v.route[1:] {
			if w, open := base.SegmentTime(g.Segment(sid)); !open || math.IsInf(w, 1) {
				blocked = true
				break
			}
		}
		if !blocked {
			continue
		}
		if s.repairRoute(v) {
			s.res.Reroutes++
			s.met.reroutes.Inc()
			if s.ev != nil {
				s.ev.Emit(eventlog.Event{Type: eventlog.TypeReroute, Kind: "repair", Vehicle: int(v.id)})
			}
			continue
		}
		// Stranded: no route to the original destination survives.
		s.res.StrandedDiverts++
		s.met.diverts.Inc()
		if s.ev != nil {
			s.ev.Emit(eventlog.Event{
				Type: eventlog.TypeReroute, Kind: "divert",
				Vehicle: int(v.id), ToDepot: len(v.onboard) == 0,
			})
		}
		if len(v.onboard) > 0 {
			s.startDelivery(v) // nearest reachable hospital, retried each step
			continue
		}
		if route, ok := s.routeToLandmark(v.pos, s.city.Depot); ok {
			v.route = route
			v.phase = PhaseToDepot
			v.goal = s.city.Depot
			v.orderStart = time.Time{}
		}
		// Depot unreachable too: keep the old route and crawl on.
	}
}

// repairRoute re-plans a vehicle's current destination under the fresh
// cost model, reporting whether a usable replacement route was found.
func (s *Simulator) repairRoute(v *vehicle) bool {
	switch v.phase {
	case PhaseServing:
		target := v.route[len(v.route)-1]
		rt, err := s.router.RouteToSegmentEnd(v.pos, target)
		if err != nil {
			return false
		}
		v.route = rt.Segs
		return true
	case PhaseDelivering, PhaseToDepot:
		goal := v.goal
		if goal == roadnet.NoLandmark {
			return false
		}
		route, ok := s.routeToLandmark(v.pos, goal)
		if !ok {
			return false
		}
		v.route = route
		return true
	default:
		return false
	}
}

// applyDueOrders applies queued orders whose effective time has arrived.
func (s *Simulator) applyDueOrders() {
	kept := s.delayed[:0]
	for _, to := range s.delayed {
		if to.at.After(s.now) {
			kept = append(kept, to)
			continue
		}
		for _, o := range to.orders {
			s.applyOrder(o)
		}
	}
	s.delayed = kept
}

// applyOrder directs one vehicle, respecting its current obligations.
func (s *Simulator) applyOrder(o Order) {
	if int(o.Vehicle) < 0 || int(o.Vehicle) >= len(s.vehicles) {
		return
	}
	v := s.vehicles[o.Vehicle]
	// A delivering or full vehicle finishes its delivery first.
	if v.phase == PhaseDelivering || len(v.onboard) >= s.cfg.Capacity {
		return
	}
	if v.phase == PhaseDwell {
		oc := o
		v.pending = &oc
		return
	}
	if o.ToDepot {
		if route, ok := s.routeToLandmark(v.pos, s.city.Depot); ok {
			v.route = route
			v.phase = PhaseToDepot
			v.orderStart = time.Time{}
			v.verbatim = false
			v.goal = s.city.Depot
		}
		return
	}
	if route, ok := s.validRoute(v.pos, o); ok {
		v.route = route
		v.phase = PhaseServing
		v.orderStart = s.now
		v.verbatim = true
		v.goal = roadnet.NoLandmark
		return
	}
	rt, err := s.router.RouteToSegmentEnd(v.pos, o.Target)
	if err != nil {
		return // unreachable target: hold position
	}
	v.route = rt.Segs
	v.phase = PhaseServing
	v.orderStart = s.now
	v.verbatim = false
	v.goal = roadnet.NoLandmark
}

// validRoute checks a dispatcher-supplied route: it must start on the
// vehicle's current segment, be contiguous, and end at the target.
func (s *Simulator) validRoute(pos roadnet.Position, o Order) ([]roadnet.SegmentID, bool) {
	if len(o.Route) == 0 || o.Route[0] != pos.Seg || o.Route[len(o.Route)-1] != o.Target {
		return nil, false
	}
	g := s.city.Graph
	for i, sid := range o.Route {
		if int(sid) < 0 || int(sid) >= g.NumSegments() {
			return nil, false
		}
		if i > 0 && g.Segment(o.Route[i-1]).To != g.Segment(sid).From {
			return nil, false
		}
	}
	return append([]roadnet.SegmentID(nil), o.Route...), true
}

// routeToLandmark plans pos -> lm, returning ok=false when unreachable.
func (s *Simulator) routeToLandmark(pos roadnet.Position, lm roadnet.LandmarkID) ([]roadnet.SegmentID, bool) {
	cur := s.city.Graph.Segment(pos.Seg)
	if cur.To == lm {
		return []roadnet.SegmentID{pos.Seg}, true
	}
	tree, _ := s.router.TreeFromPosition(pos)
	if !tree.Reachable(lm) {
		return nil, false
	}
	path, err := tree.PathTo(lm)
	if err != nil {
		return nil, false
	}
	route := make([]roadnet.SegmentID, 0, len(path)+1)
	route = append(route, pos.Seg)
	route = append(route, path...)
	return route, true
}

// segmentSpeed returns the current driving speed on seg in m/s. A
// vehicle on a flooded-closed segment crawls across at a small fraction
// of the speed limit — it cannot leave the road, and a dispatcher that
// planned through the closure pays for it in driving time. It reads the
// router's weight column, which holds the cost model's time where seg
// is open and +Inf where it is closed.
func (s *Simulator) segmentSpeed(seg roadnet.Segment) float64 {
	w := s.router.Weight(seg.ID)
	if math.IsInf(w, 1) || w <= 0 {
		return seg.SpeedLimit * s.cfg.CrawlFactor
	}
	return seg.Length / w
}

// stepVehicle advances one vehicle by one time step.
func (s *Simulator) stepVehicle(v *vehicle) {
	if s.now.Before(v.stalledUntil) {
		return // broken down: no movement, no pickups, until recovery
	}
	if v.phase == PhaseDwell {
		if s.now.Before(v.dwellUntil) {
			return
		}
		v.phase = v.resume
		if v.pending != nil {
			o := *v.pending
			v.pending = nil
			s.applyOrder(o)
		}
	}
	// Delivering vehicles with no route keep retrying (hospital may have
	// been unreachable under an earlier flood state).
	if v.phase == PhaseDelivering && len(v.route) == 0 {
		s.startDelivery(v)
		if len(v.route) == 0 {
			return
		}
	}
	if v.phase == PhaseIdle || len(v.route) == 0 {
		// Idle vehicles can still pick up requests appearing under them.
		s.tryPickup(v)
		return
	}

	budget := s.segmentSpeed(s.city.Graph.Segment(v.pos.Seg)) * s.cfg.Step.Seconds()
	for budget > 0 && len(v.route) > 0 {
		seg := s.city.Graph.Segment(v.pos.Seg)
		remaining := seg.Length - v.pos.Offset
		if budget < remaining {
			v.pos.Offset += budget
			budget = 0
			break
		}
		budget -= remaining
		v.pos.Offset = seg.Length
		// Segment complete.
		if len(v.route) == 1 {
			v.route = nil
			s.arrive(v)
			break
		}
		v.route = v.route[1:]
		v.pos = roadnet.Position{Seg: v.route[0], Offset: 0}
		if s.tryPickup(v) {
			break // dwelling for pickup
		}
	}
	if v.phase != PhaseDwell {
		s.tryPickup(v)
	}
}

// arrive handles a vehicle reaching the end of its route.
func (s *Simulator) arrive(v *vehicle) {
	switch v.phase {
	case PhaseServing:
		s.tryPickup(v)
		if len(v.onboard) > 0 {
			s.startDelivery(v)
			return
		}
		if v.phase != PhaseDwell {
			v.phase = PhaseIdle
		}
	case PhaseDelivering:
		s.dropoff(v)
	case PhaseToDepot:
		v.phase = PhaseIdle
	default:
		v.phase = PhaseIdle
	}
}

// tryPickup boards active requests on the vehicle's current segment. It
// returns true when the vehicle entered a pickup dwell.
func (s *Simulator) tryPickup(v *vehicle) bool {
	if len(v.onboard) >= s.cfg.Capacity {
		return false
	}
	idxs := s.activeBySeg[v.pos.Seg]
	if len(idxs) == 0 {
		return false
	}
	picked := 0
	rest := idxs[:0]
	for _, i := range idxs {
		r := &s.requests[i]
		if r.Served() {
			continue
		}
		if len(v.onboard) >= s.cfg.Capacity {
			rest = append(rest, i)
			continue
		}
		r.PickedUpAt = s.now
		r.ServedBy = v.id
		if !v.orderStart.IsZero() {
			r.DrivingDelay = s.now.Sub(v.orderStart)
		}
		v.onboard = append(v.onboard, i)
		v.served++
		picked++
		s.servedCnt++
		if s.ev != nil {
			s.ev.Emit(eventlog.Event{
				Type: eventlog.TypePickup, Vehicle: int(v.id), Request: int(r.ID), T: s.now,
			})
		}
	}
	if len(rest) == 0 {
		delete(s.activeBySeg, v.pos.Seg)
	} else {
		s.activeBySeg[v.pos.Seg] = rest
	}
	if picked == 0 {
		return false
	}
	s.met.pickups.Add(int64(picked))
	if s.cfg.PickupTime > 0 {
		v.resume = v.phase
		if v.resume == PhaseDwell || v.resume == PhaseIdle {
			v.resume = PhaseServing
		}
		if len(v.route) == 0 {
			v.resume = PhaseIdle
		}
		v.phase = PhaseDwell
		v.dwellUntil = s.now.Add(time.Duration(picked) * s.cfg.PickupTime)
	}
	// A full vehicle heads to the hospital as soon as any dwell ends.
	if len(v.onboard) >= s.cfg.Capacity {
		if v.phase == PhaseDwell {
			v.resume = PhaseDelivering
			v.route = nil
		} else {
			s.startDelivery(v)
		}
	}
	return v.phase == PhaseDwell
}

// startDelivery routes the vehicle to the reachable hospital with the
// smallest travel time.
func (s *Simulator) startDelivery(v *vehicle) {
	tree, _ := s.router.TreeFromPosition(v.pos)
	bestLM := roadnet.NoLandmark
	bestT := math.Inf(1)
	for _, h := range s.city.Hospitals {
		if t := tree.TimeTo(h); t < bestT {
			bestT = t
			bestLM = h
		}
	}
	v.phase = PhaseDelivering
	v.orderStart = time.Time{}
	v.route = nil
	v.verbatim = false
	v.goal = bestLM
	if bestLM == roadnet.NoLandmark {
		return // retry next step
	}
	if route, ok := s.routeToLandmark(v.pos, bestLM); ok {
		v.route = route
	}
}

// dropoff delivers every passenger at the current position.
func (s *Simulator) dropoff(v *vehicle) {
	for _, i := range v.onboard {
		s.requests[i].DeliveredAt = s.now
	}
	n := len(v.onboard)
	s.met.dropoffs.Add(int64(n))
	if s.ev != nil && n > 0 {
		s.ev.Emit(eventlog.Event{Type: eventlog.TypeDropoff, Vehicle: int(v.id), N: n, T: s.now})
	}
	v.onboard = v.onboard[:0]
	if s.cfg.DropTime > 0 && n > 0 {
		v.phase = PhaseDwell
		v.resume = PhaseIdle
		v.dwellUntil = s.now.Add(s.cfg.DropTime)
		return
	}
	v.phase = PhaseIdle
}
