package dispatch

import (
	"math"
	"time"

	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// Greedy is a deliberately simple nearest-request policy used as the
// Resilient wrapper's fallback when the primary dispatcher keeps
// failing: each idle vehicle is sent to the nearest active request's
// segment not already claimed this round. It uses only the snapshot
// (no learned state, no solver), always terminates quickly, and its
// modeled computation delay is negligible — exactly what a degraded
// mode should look like.
type Greedy struct{}

var _ sim.Dispatcher = Greedy{}

// NewGreedy returns the fallback policy.
func NewGreedy() Greedy { return Greedy{} }

// Name implements sim.Dispatcher.
func (Greedy) Name() string { return "greedy" }

// Decide implements sim.Dispatcher. Vehicles are scanned in ID order
// and requests in slice order, so decisions are deterministic for a
// deterministic snapshot.
func (Greedy) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	const delay = 100 * time.Millisecond
	if len(snap.ActiveRequests) == 0 {
		return nil, delay
	}
	// Warm the shared tree cache for every idle team in parallel; the
	// sequential claim loop below then runs on cache hits.
	idle := make([]sim.VehicleState, 0, len(snap.Vehicles))
	for _, v := range snap.Vehicles {
		if v.Phase == sim.PhaseIdle {
			idle = append(idle, v)
		}
	}
	prefetchTrees(snap.Router, idle)
	claimed := make(map[roadnet.SegmentID]bool, len(snap.ActiveRequests))
	var orders []sim.Order
	for _, v := range snap.Vehicles {
		if v.Phase != sim.PhaseIdle {
			continue
		}
		tree, head := snap.Router.TreeFromPosition(v.Pos)
		best := roadnet.NoSegment
		bestT := math.Inf(1)
		for _, rq := range snap.ActiveRequests {
			if claimed[rq.Seg] {
				continue
			}
			s := snap.City.Graph.Segment(rq.Seg)
			w, open := snap.Cost.SegmentTime(s)
			if !open || math.IsInf(w, 1) {
				continue
			}
			if t := arrival(tree, head, v.Pos, s, w); t < bestT {
				bestT = t
				best = rq.Seg
			}
		}
		if best == roadnet.NoSegment {
			continue
		}
		claimed[best] = true
		orders = append(orders, sim.Order{Vehicle: v.ID, Target: best})
	}
	return orders, delay
}
