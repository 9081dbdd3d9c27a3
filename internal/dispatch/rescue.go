package dispatch

import (
	"math"
	"sort"
	"time"

	"mobirescue/internal/ilp"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
	"mobirescue/internal/tsa"
)

// Rescue is the paper's catastrophic-situation baseline [8]: a
// time-series model predicts per-segment demand at the current hour from
// the same hour in previous days, and a periodic integer program assigns
// every team to the predicted demand, minimizing total driving delay. It
// routes flood-aware (unlike Schedule) but its prediction ignores
// disaster-related factors — the inaccuracy Figures 15–16 quantify — and
// every solve pays the IP latency.
type Rescue struct {
	predictor *tsa.Predictor
	start     time.Time // hour origin for the predictor
	latency   ilp.LatencyModel
}

var _ sim.Dispatcher = (*Rescue)(nil)

// NewRescue builds the baseline. predictor must be pre-seeded with
// historical demand (the training disaster); start anchors its hour
// indexing.
func NewRescue(predictor *tsa.Predictor, start time.Time, latency ilp.LatencyModel) *Rescue {
	return &Rescue{predictor: predictor, start: start, latency: latency}
}

// Name implements sim.Dispatcher.
func (r *Rescue) Name() string { return "Rescue" }

// CaptureState implements sim.StateCodec: the time-series predictor's
// accumulated history.
func (r *Rescue) CaptureState() ([]byte, error) { return r.predictor.CaptureState() }

// RestoreState implements sim.StateCodec.
func (r *Rescue) RestoreState(blob []byte) error { return r.predictor.RestoreState(blob) }

// hourIndex converts a wall-clock instant to the predictor's hour slot.
func (r *Rescue) hourIndex(t time.Time) int {
	return int(t.Sub(r.start) / time.Hour)
}

// Observe feeds live demand back into the time-series model, keeping the
// predictor updated as the day unfolds.
func (r *Rescue) Observe(snap *sim.Snapshot) {
	h := r.hourIndex(snap.Time)
	perSeg := make(map[roadnet.SegmentID]int)
	for _, rq := range snap.ActiveRequests {
		perSeg[rq.Seg]++
	}
	for seg, n := range perSeg {
		// Average within the hour is approximated by per-round counts
		// scaled down by rounds/hour; exactness is irrelevant to the
		// method's behavior (relative demand drives the assignment).
		r.predictor.Observe(int(seg), h, float64(n)/12)
	}
}

// Predict returns the predicted demand for one segment at time t.
func (r *Rescue) Predict(seg roadnet.SegmentID, t time.Time) float64 {
	return r.predictor.Predict(int(seg), r.hourIndex(t))
}

// Decide implements sim.Dispatcher.
func (r *Rescue) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	r.Observe(snap)

	// Only free teams take new orders; teams already en route, picking
	// up, or delivering finish their current task first (reassigning the
	// whole fleet every round churns routes and nobody ever arrives).
	var avail []sim.VehicleState
	for _, v := range snap.Vehicles {
		if v.Phase.Free() {
			avail = append(avail, v)
		}
	}
	if len(avail) == 0 {
		return nil, r.latency.Latency(0)
	}
	// Warm the shared tree cache for every free team in parallel; the
	// cost-matrix loop below runs on cache hits.
	prefetchTrees(snap.Router, avail)

	// Predicted demand per segment at this hour; keep positive entries.
	// Openness is judged on the civilian flood model: under the
	// simulator's rescue-crawl adapter every segment reads "open" (at
	// crawl cost), which would silently defeat this method's advertised
	// flood-awareness.
	base := sim.Civilian(snap.Cost)
	type segDemand struct {
		seg roadnet.SegmentID
		n   float64
	}
	var demands []segDemand
	g := snap.City.Graph
	g.Segments(func(s roadnet.Segment) {
		if w, open := base.SegmentTime(s); !open || math.IsInf(w, 1) {
			return
		}
		if n := r.Predict(s.ID, snap.Time); n > 0 {
			demands = append(demands, segDemand{seg: s.ID, n: n})
		}
	})
	sort.Slice(demands, func(i, j int) bool { return demands[i].n > demands[j].n })

	// Build target list: segments weighted by expected demand, replicated
	// so several teams can cover a hot segment, capped at fleet size.
	var targets []roadnet.SegmentID
	for _, d := range demands {
		copies := int(d.n + 0.999)
		if copies > 3 {
			copies = 3
		}
		for c := 0; c < copies && len(targets) < len(avail); c++ {
			targets = append(targets, d.seg)
		}
		if len(targets) >= len(avail) {
			break
		}
	}
	delay := r.latency.Latency(len(avail) + len(targets))

	orders := make([]sim.Order, 0, len(avail))
	assigned := make(map[int]bool)
	if len(targets) > 0 {
		cost := make([][]float64, len(avail))
		for i, v := range avail {
			cost[i] = make([]float64, len(targets))
			// One flood-aware Dijkstra per vehicle.
			tree, head := snap.Router.TreeFromPosition(v.Pos)
			for j, seg := range targets {
				s := g.Segment(seg)
				w, open := snap.Cost.SegmentTime(s)
				if !open {
					cost[i][j] = ilp.Infeasible
					continue
				}
				cost[i][j] = arrival(tree, head, v.Pos, s, w)
			}
		}
		if assignment, _, err := ilp.Hungarian(cost); err == nil || assignment != nil {
			for i, j := range assignment {
				if j < 0 {
					continue
				}
				orders = append(orders, sim.Order{Vehicle: avail[i].ID, Target: targets[j]})
				assigned[i] = true
			}
		}
	}
	// Every remaining team serves a standby position: the IP formulation
	// keeps the whole fleet deployed (constant serving count, Figure 14).
	// Standby posts must also sit on civilian-open roads.
	var standby []roadnet.SegmentID
	for reg := 1; reg <= snap.City.NumRegions(); reg++ {
		if seg := nearestOpenInRegion(snap, base, reg); seg != roadnet.NoSegment {
			standby = append(standby, seg)
		}
	}
	if len(standby) > 0 {
		k := 0
		for i, v := range avail {
			if assigned[i] {
				continue
			}
			orders = append(orders, sim.Order{Vehicle: v.ID, Target: standby[k%len(standby)]})
			k++
		}
	}
	return orders, delay
}
