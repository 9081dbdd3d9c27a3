package dispatch

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"mobirescue/internal/ilp"
	"mobirescue/internal/obs"
	"mobirescue/internal/rl"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// Exported MobiRescue-specific metric names (see README "Observability").
const (
	MetricMRDecisions      = "mobirescue_mr_decisions_total"
	MetricMRDepot          = "mobirescue_mr_depot_decisions_total"
	MetricMRGuardOverrides = "mobirescue_mr_guard_overrides_total"
	MetricMRCoverRedirects = "mobirescue_mr_cover_redirects_total"
)

// mrMetrics are the dispatcher's optional counters; all fields are nil
// (no-op) until EnableMetrics is called.
type mrMetrics struct {
	decisions      *obs.Counter
	depot          *obs.Counter
	guardOverrides *obs.Counter
	coverRedirects *obs.Counter
}

// MRConfig tunes the MobiRescue dispatcher.
type MRConfig struct {
	// Alpha, Beta, Gamma are the reward weights of Equation 5: served
	// requests, driving delay (per hour), and serving-team count.
	Alpha, Beta, Gamma float64
	// Capacity is the vehicle capacity c (for state normalization).
	Capacity int
	// InferenceLatency models the trained policy's decision time (the
	// paper reports < 0.5 s).
	InferenceLatency time.Duration
	// Agent configures the underlying DQN.
	Agent rl.DQNConfig
}

// DefaultMRConfig returns the defaults used in the experiments.
func DefaultMRConfig() MRConfig {
	return MRConfig{
		Alpha:            50.0,
		Beta:             0.3,
		Gamma:            0.01,
		Capacity:         5,
		InferenceLatency: 400 * time.Millisecond,
		Agent:            dispatchDQNConfig(),
	}
}

// dispatchDQNConfig tunes the DQN for the dispatch MDP: rewards are
// sparse (a pickup is worth Alpha but arrives many rounds after the
// order), so learning needs bigger batches, a slower target sync, and a
// longer exploration schedule than the library defaults.
func dispatchDQNConfig() rl.DQNConfig {
	cfg := rl.DefaultDQNConfig()
	cfg.LR = 5e-4
	cfg.BatchSize = 64
	cfg.BufferSize = 50000
	cfg.LearnStart = 1000
	cfg.TargetSync = 500
	cfg.EpsilonDecaySteps = 20000
	return cfg
}

// decision remembers one vehicle's last RL decision so the next round can
// close the transition with its observed reward.
type decision struct {
	state       []float64
	action      int
	plannedTime float64 // planned driving seconds for the chosen order
	served      int     // vehicle's cumulative pickups at decision time
}

// MobiRescue is the paper's RL-based rescue team dispatcher. Each round
// it aggregates the SVM-predicted request distribution into regions and,
// per team, chooses a region to serve (driving to that region's
// highest-demand open segment) or the depot. With training enabled it
// keeps learning online from observed rewards, as Section IV-C4
// describes.
//
// MobiRescue is not safe for concurrent use.
type MobiRescue struct {
	cfg     MRConfig
	predict PredictFn
	// demand, when set, supplies pre-aggregated per-region totals of the
	// un-adjusted prediction, replacing Decide's sorted-key regionDemand
	// scan (see SetDemandSource). Nil falls back to aggregating the
	// predict map.
	demand     DemandFn
	numRegions int
	// agent is the central learner; nil on actor views (see ActorView).
	agent *rl.DQN
	// policy is what Decide actually drives: the agent itself on the
	// primary dispatcher, a trajectory-recording rl.Actor on views.
	policy   rl.Policy
	training bool
	last     map[sim.VehicleID]*decision
	// assigned tracks each team's outstanding target segment so the
	// coverage pass knows which request segments already have a team
	// inbound.
	assigned map[sim.VehicleID]roadnet.SegmentID
	met      mrMetrics
}

var _ sim.Dispatcher = (*MobiRescue)(nil)

// NewMobiRescue builds the dispatcher for a city with the given number of
// regions. predict supplies the SVM stage's output (Equation 2).
func NewMobiRescue(numRegions int, predict PredictFn, cfg MRConfig) (*MobiRescue, error) {
	if numRegions <= 0 {
		return nil, fmt.Errorf("dispatch: need at least one region")
	}
	if predict == nil {
		return nil, fmt.Errorf("dispatch: prediction function required")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 5
	}
	stateSize := 2*numRegions + 3
	numActions := numRegions + 1 // regions + depot
	agent, err := rl.NewDQN(stateSize, numActions, cfg.Agent)
	if err != nil {
		return nil, err
	}
	return &MobiRescue{
		cfg:        cfg,
		predict:    predict,
		numRegions: numRegions,
		agent:      agent,
		policy:     agent,
		last:       make(map[sim.VehicleID]*decision),
		assigned:   make(map[sim.VehicleID]roadnet.SegmentID),
	}, nil
}

// ActorView returns a rollout clone of the dispatcher that decides with p
// instead of the central learner: same reward shaping, coverage pass, and
// prediction pipeline, but its own per-episode decision state and no
// learning. Views are what the parallel trainer (internal/train) hands to
// concurrent episode simulations — the shared prediction provider is
// concurrency-safe and the policy snapshot is only read, so any number of
// views can replay days at once while the learner stays untouched.
//
// The view is always in training mode (transitions flow to p.Observe);
// learner-only methods (Agent, SavePolicy, LoadPolicy, EnableMetrics)
// must not be called on it.
func (m *MobiRescue) ActorView(p rl.Policy) *MobiRescue {
	return &MobiRescue{
		cfg:        m.cfg,
		predict:    m.predict,
		demand:     m.demand,
		numRegions: m.numRegions,
		policy:     p,
		training:   true,
		last:       make(map[sim.VehicleID]*decision),
		assigned:   make(map[sim.VehicleID]roadnet.SegmentID),
	}
}

// SetDemandSource installs (or, with nil, removes) a pre-aggregated
// region-demand source. When set, Decide derives its per-region state
// from fn's totals plus the active-request adjustment instead of
// re-aggregating the full predicted map — the demand is bit-identical
// (integer-exact sums) but costs O(regions + requests) per round
// instead of a sorted scan over every predicted segment. The source
// must aggregate the same prediction Decide's PredictFn serves; callers
// layering noise over the prediction (chaos) must remove the source.
func (m *MobiRescue) SetDemandSource(fn DemandFn) { m.demand = fn }

// Name implements sim.Dispatcher.
func (m *MobiRescue) Name() string { return "MobiRescue" }

// EnableMetrics registers the dispatcher's decision counters with reg and
// wires the underlying DQN's training telemetry. A nil registry is a
// no-op; the default (metrics disabled) costs nothing on the hot path.
func (m *MobiRescue) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.met = mrMetrics{
		decisions:      reg.Counter(MetricMRDecisions, "RL policy decisions taken."),
		depot:          reg.Counter(MetricMRDepot, "Decisions that sent a team to the depot."),
		guardOverrides: reg.Counter(MetricMRGuardOverrides, "Depot choices overridden by the deployment guard."),
		coverRedirects: reg.Counter(MetricMRCoverRedirects, "Teams redirected by the waiting-request coverage pass."),
	}
	m.agent.EnableMetrics(reg)
}

// SetTraining toggles online learning and exploration.
func (m *MobiRescue) SetTraining(on bool) { m.training = on }

// Training reports whether online learning is active.
func (m *MobiRescue) Training() bool { return m.training }

// Agent exposes the underlying DQN (e.g. for inspection in tests).
func (m *MobiRescue) Agent() *rl.DQN { return m.agent }

// SavePolicy writes the trained Q-network.
func (m *MobiRescue) SavePolicy(w io.Writer) error { return m.agent.Save(w) }

// LoadPolicy restores a Q-network written by SavePolicy.
func (m *MobiRescue) LoadPolicy(r io.Reader) error { return m.agent.LoadPolicy(r) }

// depotAction is the action index meaning "return to depot".
func (m *MobiRescue) depotAction() int { return m.numRegions }

// mrDecisionWire serializes one entry of the last-decision map.
type mrDecisionWire struct {
	Vehicle     sim.VehicleID
	State       []float64
	Action      int
	PlannedTime float64
	Served      int
}

// mrWire is the dispatcher's snapshot state: the agent's checkpoint
// (policy, optimizer, counters, RNG — the replay buffer is only needed
// for exact mid-*training* resume, which snapshots the learner
// separately) plus the cross-window decision bookkeeping.
type mrWire struct {
	Agent    []byte // rl checkpoint envelope; nil on actor views
	Last     []mrDecisionWire
	Assigned map[sim.VehicleID]roadnet.SegmentID
}

// CaptureState implements sim.StateCodec.
func (m *MobiRescue) CaptureState() ([]byte, error) {
	w := mrWire{Assigned: m.assigned}
	if m.agent != nil {
		var buf bytes.Buffer
		if err := m.agent.SaveCheckpoint(&buf, 0); err != nil {
			return nil, err
		}
		w.Agent = buf.Bytes()
	}
	ids := make([]sim.VehicleID, 0, len(m.last))
	for id := range m.last {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		d := m.last[id]
		w.Last = append(w.Last, mrDecisionWire{
			Vehicle: id, State: d.state, Action: d.action,
			PlannedTime: d.plannedTime, Served: d.served,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("dispatch: encoding MobiRescue state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements sim.StateCodec.
func (m *MobiRescue) RestoreState(blob []byte) error {
	var w mrWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		return fmt.Errorf("dispatch: decoding MobiRescue state: %w", err)
	}
	if len(w.Agent) > 0 && m.agent != nil {
		if _, err := m.agent.LoadCheckpoint(bytes.NewReader(w.Agent)); err != nil {
			return err
		}
	}
	m.last = make(map[sim.VehicleID]*decision, len(w.Last))
	for _, d := range w.Last {
		m.last[d.Vehicle] = &decision{
			state: d.State, action: d.Action,
			plannedTime: d.PlannedTime, served: d.Served,
		}
	}
	m.assigned = w.Assigned
	if m.assigned == nil {
		m.assigned = make(map[sim.VehicleID]roadnet.SegmentID)
	}
	return nil
}

// buildState assembles one vehicle's state vector: per-region normalized
// predicted demand, per-region travel time from the vehicle, onboard
// fraction, and serving flag. Wall-clock time is deliberately excluded:
// the demand distribution is the signal, and hour-of-day features make
// the policy memorize the training day's temporal pattern (e.g. "nobody
// needs rescue overnight"), which does not transfer across storms.
func (m *MobiRescue) buildState(snap *sim.Snapshot, v sim.VehicleState, demand []float64, times []float64) []float64 {
	state := make([]float64, 0, 2*m.numRegions+3)
	total := 0.0
	for r := 1; r <= m.numRegions; r++ {
		total += demand[r]
	}
	for r := 1; r <= m.numRegions; r++ {
		state = append(state, demand[r]/(1+total))
	}
	for r := 0; r < m.numRegions; r++ {
		t := times[r]
		if math.IsInf(t, 1) {
			t = 3600
		}
		if t > 3600 {
			t = 3600
		}
		state = append(state, t/3600)
	}
	state = append(state, float64(v.Onboard)/float64(m.cfg.Capacity))
	serving := 0.0
	if v.Phase == sim.PhaseServing {
		serving = 1
	}
	state = append(state, serving)
	// Fleet coverage: fraction of teams already out working. This lets
	// the policy learn "enough teams are deployed" as a stable signal
	// instead of every team flipping between serve and depot together.
	working := 0
	for _, o := range snap.Vehicles {
		if o.Phase == sim.PhaseServing || o.Phase == sim.PhaseDelivering || o.Phase == sim.PhaseDwell {
			working++
		}
	}
	state = append(state, float64(working)/float64(len(snap.Vehicles)))
	return state
}

// demandVector derives the per-region demand vector for the RL state.
// With a demand source installed it starts from the provider's
// pre-aggregated totals and applies the +10 active-request adjustment
// under the same validity filters the map aggregation uses; per-person
// counts and the adjustment are integers, so float64 sums are exact and
// both paths produce bit-identical vectors.
func (m *MobiRescue) demandVector(snap *sim.Snapshot, pred map[roadnet.SegmentID]float64) []float64 {
	g := snap.City.Graph
	if m.demand != nil {
		if base := m.demand(snap.Time); len(base) == m.numRegions+1 {
			out := make([]float64, m.numRegions+1)
			copy(out, base)
			for _, rq := range snap.ActiveRequests {
				if int(rq.Seg) < 0 || int(rq.Seg) >= g.NumSegments() {
					continue
				}
				if r := g.Segment(rq.Seg).Region; r >= 1 && r <= m.numRegions {
					out[r] += 10
				}
			}
			return out
		}
	}
	return regionDemand(g, pred, m.numRegions)
}

// Decide implements sim.Dispatcher.
func (m *MobiRescue) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	// The state's "current distribution of potential rescue requests"
	// combines the SVM's prediction with the requests that have already
	// appeared and are still waiting — the dispatch center knows both,
	// and an appeared request is certain demand while a predicted person
	// may never call.
	pred := make(map[roadnet.SegmentID]float64)
	for seg, n := range m.predict(snap.Time) {
		pred[seg] = n
	}
	for _, rq := range snap.ActiveRequests {
		pred[rq.Seg] += 10
	}
	demand := m.demandVector(snap, pred)
	// The civilian-operability view distinguishes genuinely open roads
	// from flooded ones the rescue cost model merely crawls through.
	var baseCost roadnet.CostModel = snap.Cost
	if rc, ok := snap.Cost.(sim.RescueCost); ok && rc.Base != nil {
		baseCost = rc.Base
	}
	// Per-region ranked target segments under the current flood state;
	// the per-team selection below spreads same-round teams across a
	// region's demand segments instead of piling onto one.
	targets := make([]roadnet.SegmentID, m.numRegions+1)
	targetLists := make([][]roadnet.SegmentID, m.numRegions+1)
	loaded := make(map[roadnet.SegmentID]int) // targets taken this round
	for r := 1; r <= m.numRegions; r++ {
		targetLists[r] = rankedSegmentsInRegion(snap, r, pred)
		if len(targetLists[r]) > 0 {
			targets[r] = targetLists[r][0]
		} else {
			targets[r] = bestSegmentInRegion(snap, r, pred)
		}
	}

	// Working teams, for the deployment guard below; idle teams have no
	// outstanding assignment anymore.
	working := 0
	for _, v := range snap.Vehicles {
		switch v.Phase {
		case sim.PhaseServing, sim.PhaseDelivering, sim.PhaseDwell:
			working++
		default:
			delete(m.assigned, v.ID)
		}
	}

	// Warm the shared tree cache for every free team in parallel before
	// the sequential decision loop: co-located teams share one Dijkstra
	// and the loop below runs on cache hits.
	free := make([]sim.VehicleState, 0, len(snap.Vehicles))
	for _, v := range snap.Vehicles {
		if (v.Phase == sim.PhaseIdle || v.Phase == sim.PhaseToDepot) && v.Onboard < m.cfg.Capacity {
			free = append(free, v)
		}
	}
	prefetchTrees(snap.Router, free)

	var orders []sim.Order
	for _, v := range snap.Vehicles {
		// Only redirect teams that are free: teams already driving to a
		// target, picking up, or delivering keep working — reassigning
		// the whole fleet every round would churn routes so much that
		// nobody ever arrives.
		if v.Phase != sim.PhaseIdle && v.Phase != sim.PhaseToDepot {
			continue
		}
		if v.Onboard >= m.cfg.Capacity {
			continue
		}
		// One Dijkstra per vehicle; per-region times derive from it.
		tree, head := snap.Router.TreeFromPosition(v.Pos)
		times := make([]float64, m.numRegions)
		mask := make([]bool, m.numRegions+1)
		for r := 1; r <= m.numRegions; r++ {
			seg := targets[r]
			if seg == roadnet.NoSegment {
				times[r-1] = math.Inf(1)
				continue
			}
			s := snap.City.Graph.Segment(seg)
			w, open := snap.Cost.SegmentTime(s)
			if !open {
				times[r-1] = math.Inf(1)
				continue
			}
			if v.Pos.Seg == seg {
				times[r-1] = head
			} else {
				times[r-1] = head + tree.TimeTo(s.From) + w
			}
			mask[r-1] = !math.IsInf(times[r-1], 1)
		}
		mask[m.depotAction()] = tree.Reachable(snap.City.Depot)

		state := m.buildState(snap, v, demand, times)

		// Close out the previous decision's transition.
		if prev, ok := m.last[v.ID]; ok && m.training {
			reward := m.cfg.Alpha*float64(v.Served-prev.served) -
				m.cfg.Beta*(prev.plannedTime/3600)
			if prev.action != m.depotAction() {
				reward -= m.cfg.Gamma
			}
			m.policy.Observe(rl.Transition{
				State:     prev.state,
				Action:    prev.action,
				Reward:    reward,
				NextState: state,
				NextMask:  mask,
			})
		}

		var action int
		if m.training {
			action = m.policy.SelectAction(state, mask)
		} else {
			action = m.policy.Greedy(state, mask)
		}
		if action < 0 {
			delete(m.last, v.ID)
			continue // nothing feasible
		}
		// Deployment guard: the learned policy handles the allocation
		// (which area to cover), but a dispatcher must never rest teams
		// while known, waiting requests outnumber the working fleet. If
		// the policy picks the depot in that situation, deploy the team
		// to its best-valued region instead.
		if action == m.depotAction() && len(snap.ActiveRequests) > working {
			regionMask := append([]bool(nil), mask...)
			regionMask[m.depotAction()] = false
			if a := m.policy.Greedy(state, regionMask); a >= 0 {
				action = a
				m.met.guardOverrides.Inc()
			}
		}
		m.met.decisions.Inc()
		if action != m.depotAction() {
			working++
		}
		planned := 0.0
		if action != m.depotAction() {
			planned = times[action]
			region := action + 1
			// Within the chosen region, take the nearest high-demand
			// segment, spreading same-round teams across segments with a
			// load penalty instead of piling onto one.
			target := targets[region]
			best := math.Inf(1)
			g := snap.City.Graph
			// Consider every demand segment in the region; the load
			// penalty spreads same-round teams across them.
			for _, seg := range targetLists[region] {
				s := g.Segment(seg)
				w, open := snap.Cost.SegmentTime(s)
				if !open {
					continue
				}
				// Anticipatory posts must sit on civilian-open roads: a
				// team parked in axle-deep water crawls to its next task,
				// so staging happens at the flood's edge, not inside it.
				if bw, baseOpen := baseCost.SegmentTime(s); !baseOpen || math.IsInf(bw, 1) {
					continue
				}
				t := head + tree.TimeTo(s.From) + w
				if v.Pos.Seg == seg {
					t = head
				}
				// Load-balance across same-round teams with a mild bias
				// toward heavier demand; the coverage pass below handles
				// waiting requests optimally, so positioning should stay
				// local.
				t += 900 * float64(loaded[seg])
				t -= 150 * math.Min(pred[seg], 3)
				if t < best {
					best = t
					target = seg
				}
			}
			if math.IsInf(best, 1) {
				// Every demand segment in the region is under water: stage
				// at the open segment nearest the region center instead.
				if seg := bestOpenSegmentInRegion(snap, baseCost, region); seg != roadnet.NoSegment {
					target = seg
				}
			}
			loaded[target]++
			m.assigned[v.ID] = target
			orders = append(orders, sim.Order{Vehicle: v.ID, Target: target})
		} else {
			m.met.depot.Inc()
			orders = append(orders, sim.Order{Vehicle: v.ID, ToDepot: true})
		}
		m.last[v.ID] = &decision{
			state:       state,
			action:      action,
			plannedTime: planned,
			served:      v.Served,
		}
	}
	orders = m.coverWaitingRequests(snap, orders)
	return orders, m.cfg.InferenceLatency
}

// coverWaitingRequests is the dispatcher's final guarantee: every road
// segment with waiting requests must have a team on it, heading to it,
// or newly ordered to it. Candidate teams — depot-bound or heading to a
// prediction-only post, whether newly ordered this round or already en
// route — are matched to uncovered request segments with a min-distance
// assignment. The RL policy still owns anticipatory placement; this pass
// only guarantees that a known request is never orphaned while a team
// chases a mere prediction.
func (m *MobiRescue) coverWaitingRequests(snap *sim.Snapshot, orders []sim.Order) []sim.Order {
	perSeg := make(map[roadnet.SegmentID]int)
	for _, rq := range snap.ActiveRequests {
		perSeg[rq.Seg]++
	}
	// Coverage from this round's request-bound orders and outstanding
	// request-bound assignments.
	ordered := make(map[sim.VehicleID]bool)
	covered := make(map[roadnet.SegmentID]int)
	for _, o := range orders {
		ordered[o.Vehicle] = true
		if !o.ToDepot {
			covered[o.Target]++
		}
	}
	for _, v := range snap.Vehicles {
		if ordered[v.ID] {
			continue
		}
		if v.Phase == sim.PhaseServing || v.Phase == sim.PhaseDwell {
			if seg, ok := m.assigned[v.ID]; ok {
				covered[seg]++
			} else {
				covered[v.Pos.Seg]++
			}
		}
	}
	var deficits []roadnet.SegmentID
	for seg, n := range perSeg {
		// One team per request segment suffices: capacity is 5 and
		// same-segment requests board together.
		if n > 0 && covered[seg] == 0 {
			deficits = append(deficits, seg)
		}
	}
	if len(deficits) == 0 {
		return orders
	}
	sort.Slice(deficits, func(i, j int) bool { return deficits[i] < deficits[j] })

	// Candidates: this round's depot-bound or prediction-only orders,
	// plus teams already en route to prediction-only posts (redirecting a
	// team from a guess to a known request is always right).
	g := snap.City.Graph
	type candidate struct {
		orderIdx int // -1 for an en-route team without an order
		vehicle  sim.VehicleID
		from     roadnet.Position
	}
	var cands []candidate
	posOf := make(map[sim.VehicleID]roadnet.Position)
	busy := make(map[sim.VehicleID]sim.VehiclePhase)
	for _, v := range snap.Vehicles {
		posOf[v.ID] = v.Pos
		busy[v.ID] = v.Phase
	}
	for i, o := range orders {
		if o.ToDepot || perSeg[o.Target] == 0 {
			cands = append(cands, candidate{orderIdx: i, vehicle: o.Vehicle, from: posOf[o.Vehicle]})
		}
	}
	for _, v := range snap.Vehicles {
		if ordered[v.ID] || v.Phase != sim.PhaseServing {
			continue
		}
		seg, ok := m.assigned[v.ID]
		if !ok || perSeg[seg] > 0 {
			continue // unknown target or already serving real demand
		}
		cands = append(cands, candidate{orderIdx: -1, vehicle: v.ID, from: v.Pos})
	}
	if len(cands) == 0 {
		return orders
	}
	// Costs are real travel times under the current flood state (one
	// Dijkstra per candidate): straight-line distance lies badly when the
	// shortest path crawls through water.
	cost := make([][]float64, len(cands))
	for ci, c := range cands {
		cost[ci] = make([]float64, len(deficits))
		tree, head := snap.Router.TreeFromPosition(c.from)
		for di, seg := range deficits {
			s := g.Segment(seg)
			if c.from.Seg == seg {
				cost[ci][di] = head
				continue
			}
			w, _ := snap.Cost.SegmentTime(s)
			t := head + tree.TimeTo(s.From) + w
			if math.IsInf(t, 1) {
				t = ilp.Infeasible
			}
			cost[ci][di] = t
		}
	}
	assignment, _, err := ilp.Hungarian(cost)
	if assignment == nil && err != nil {
		return orders
	}
	for ci, di := range assignment {
		if di < 0 {
			continue
		}
		c := cands[ci]
		seg := deficits[di]
		if c.orderIdx >= 0 {
			orders[c.orderIdx].ToDepot = false
			orders[c.orderIdx].Target = seg
		} else {
			orders = append(orders, sim.Order{Vehicle: c.vehicle, Target: seg})
		}
		m.met.coverRedirects.Inc()
		m.assigned[c.vehicle] = seg
		// Attribute the executed action to the segment's region so the
		// learner values what actually happened.
		if prev, ok := m.last[c.vehicle]; ok {
			region := g.Segment(seg).Region
			if region >= 1 && region <= m.numRegions {
				prev.action = region - 1
			}
		}
	}
	return orders
}

// EndEpisode closes all open transitions at the end of a training day.
// Vehicles are visited in ID order: m.last is a map, and feeding the
// learner its closing transitions in map-iteration order made whole
// training runs — and everything downstream of the learned policy —
// irreproducible from one invocation to the next.
func (m *MobiRescue) EndEpisode() {
	if m.training {
		ids := make([]sim.VehicleID, 0, len(m.last))
		for id := range m.last {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			prev := m.last[id]
			reward := -m.cfg.Beta * (prev.plannedTime / 3600)
			if prev.action != m.depotAction() {
				reward -= m.cfg.Gamma
			}
			m.policy.Observe(rl.Transition{
				State:     prev.state,
				Action:    prev.action,
				Reward:    reward,
				NextState: prev.state,
				Done:      true,
			})
		}
	}
	m.last = make(map[sim.VehicleID]*decision)
}
