package dispatch

import (
	"math"
	"time"

	"mobirescue/internal/ilp"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// Schedule is the paper's normal-situation emergency-vehicle baseline
// [5]: every round it solves an assignment problem matching available
// teams to the rescue requests that have already appeared, minimizing
// driving delay. Two deliberate weaknesses reproduce the paper's
// analysis:
//
//   - It plans on the pre-disaster free-flow map, ignoring flood
//     closures; the routes it hands the simulator crawl through flooded
//     segments ("wasted time on routes with unavailable road segments").
//   - Each solve pays the integer-programming latency (~minutes), so its
//     orders are already stale when they take effect.
//
// Teams without a request assignment are spread across static standby
// positions, so its serving-team count stays constant (Figure 14).
type Schedule struct {
	latency    ilp.LatencyModel
	freeRouter *roadnet.Router // stale, flood-unaware view
}

var _ sim.Dispatcher = (*Schedule)(nil)

// NewSchedule builds the baseline over the city graph. latency models the
// IP solve time; pass ilp.PaperLatency() for the paper's setting.
func NewSchedule(g *roadnet.Graph, latency ilp.LatencyModel) *Schedule {
	return &Schedule{
		latency:    latency,
		freeRouter: roadnet.NewRouter(g, roadnet.FreeFlow{}),
	}
}

// Name implements sim.Dispatcher.
func (s *Schedule) Name() string { return "Schedule" }

// SetWorkers bounds the parallel tree prefetching of the baseline's
// private free-flow router (0 = GOMAXPROCS, 1 = serial). Worker count
// never changes the orders produced. Call before the first Decide.
func (s *Schedule) SetWorkers(n int) { s.freeRouter.SetWorkers(n) }

// vehiclePlan caches one vehicle's free-flow shortest-path tree so the
// cost matrix and the final routes come from a single Dijkstra per
// vehicle.
type vehiclePlan struct {
	pos  roadnet.Position
	tree *roadnet.Tree
	head float64
}

// timeTo returns the free-flow travel time from the plan's position to
// the end of seg.
func (vp *vehiclePlan) timeTo(g *roadnet.Graph, seg roadnet.SegmentID) float64 {
	if vp.pos.Seg == seg {
		return vp.head
	}
	s := g.Segment(seg)
	return vp.head + vp.tree.TimeTo(s.From) + s.FreeFlowTime()
}

// routeTo reconstructs the free-flow route from the plan's position to
// the end of seg, or nil when unreachable.
func (vp *vehiclePlan) routeTo(g *roadnet.Graph, seg roadnet.SegmentID) []roadnet.SegmentID {
	if vp.pos.Seg == seg {
		return []roadnet.SegmentID{seg}
	}
	s := g.Segment(seg)
	if !vp.tree.Reachable(s.From) {
		return nil
	}
	path, err := vp.tree.PathTo(s.From)
	if err != nil {
		return nil
	}
	route := make([]roadnet.SegmentID, 0, len(path)+2)
	route = append(route, vp.pos.Seg)
	route = append(route, path...)
	route = append(route, seg)
	return route
}

// Decide implements sim.Dispatcher.
func (s *Schedule) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	g := snap.City.Graph
	// Only free teams take new orders; teams already en route, picking
	// up, or delivering finish their current task first (reassigning the
	// whole fleet every round churns routes and nobody ever arrives).
	var avail []sim.VehicleState
	for _, v := range snap.Vehicles {
		if v.Phase != sim.PhaseIdle && v.Phase != sim.PhaseToDepot {
			continue
		}
		avail = append(avail, v)
	}
	delay := s.latency.Latency(len(avail) + len(snap.ActiveRequests))
	if len(avail) == 0 {
		return nil, delay
	}
	// Warm the free-flow tree cache in parallel. The freeRouter never
	// rebinds its cost, so its cache epoch never advances and trees for
	// recurring positions (the hospitals teams hold between calls) are
	// hits across the whole run, not just within a round.
	prefetchTrees(s.freeRouter, avail)
	plans := make([]vehiclePlan, len(avail))
	for i, v := range avail {
		tree, head := s.freeRouter.TreeFromPosition(v.Pos)
		plans[i] = vehiclePlan{pos: v.Pos, tree: tree, head: head}
	}

	orders := make([]sim.Order, 0, len(avail))
	assigned := make(map[int]bool) // avail index -> has order
	if len(snap.ActiveRequests) > 0 {
		cost := make([][]float64, len(avail))
		for i := range avail {
			cost[i] = make([]float64, len(snap.ActiveRequests))
			for j, rq := range snap.ActiveRequests {
				t := plans[i].timeTo(g, rq.Seg)
				if math.IsInf(t, 1) {
					t = ilp.Infeasible
				}
				cost[i][j] = t
			}
		}
		if assignment, _, err := ilp.Hungarian(cost); err == nil || assignment != nil {
			for i, j := range assignment {
				if j < 0 {
					continue
				}
				target := snap.ActiveRequests[j].Seg
				orders = append(orders, sim.Order{
					Vehicle: avail[i].ID,
					Target:  target,
					Route:   plans[i].routeTo(g, target),
				})
				assigned[i] = true
			}
		}
	}
	// Remaining teams keep their static stations: the paper's Schedule
	// is a static ambulance-location model [5], so between calls each
	// team holds (or returns to) its base hospital rather than patrolling
	// demand. The whole fleet stays deployed, so the serving count is
	// constant (Figure 14).
	for i, v := range avail {
		if assigned[i] {
			continue
		}
		base := snap.City.HospitalNearest(g.Point(v.Pos))
		if base == roadnet.NoLandmark {
			continue
		}
		var target roadnet.SegmentID = roadnet.NoSegment
		if out := g.Out(base); len(out) > 0 {
			target = out[0]
		}
		if target == roadnet.NoSegment {
			continue
		}
		orders = append(orders, sim.Order{
			Vehicle: v.ID,
			Target:  target,
			Route:   plans[i].routeTo(g, target),
		})
	}
	return orders, delay
}
