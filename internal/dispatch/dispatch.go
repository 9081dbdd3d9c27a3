// Package dispatch implements the three rescue-team dispatching methods
// the paper evaluates (Section V-A):
//
//   - MobiRescue (MR): the paper's contribution — an RL policy over the
//     predicted distribution of potential rescue requests (from the SVM
//     stage) that decides, per team, which area to serve or whether to
//     return to the depot. Inference takes well under a second, so its
//     orders apply almost immediately.
//   - Schedule [5]: on-demand integer-programming dispatch for normal
//     situations. It assigns teams to appeared requests minimizing
//     driving delay, but plans on the pre-disaster (free-flow) map —
//     ignoring flood closures — and pays minutes of IP solve time.
//   - Rescue [8]: time-series demand prediction plus periodic integer
//     programming. Flood-aware routing, but its predictor ignores
//     disaster-related factors and it pays the same IP latency.
//
// All three implement sim.Dispatcher.
package dispatch

import (
	"math"
	"sort"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// PredictFn returns the predicted number of potential rescue requests per
// road segment at time t — the distribution ñ_e of Equation 2, produced
// by the SVM stage.
type PredictFn func(t time.Time) map[roadnet.SegmentID]float64

// DemandFn returns pre-aggregated per-region totals of the predicted
// distribution at t (index 0 unused, length numRegions+1). The
// prediction provider computes these region-sharded during the window
// pass; because per-person counts are small integers the totals are
// bit-identical to aggregating the PredictFn map with regionDemand. The
// returned slice is shared — callers must not mutate it.
type DemandFn func(t time.Time) []float64

// prefetchTrees warms r's road-state-scoped shortest-path tree cache for
// the head landmark of every given vehicle, computing missing trees in
// parallel across the router's worker bound. Dispatch decision loops
// stay sequential — prefetching only moves the Dijkstra work onto a
// pool, so a dispatcher's output is byte-identical for any worker
// count. Vehicles co-located at a landmark (the depot at round 0, a
// hospital) share one tree instead of paying one Dijkstra each.
func prefetchTrees(r *roadnet.Router, vehicles []sim.VehicleState) {
	if r == nil || len(vehicles) == 0 {
		return
	}
	g := r.Graph()
	srcs := make([]roadnet.LandmarkID, 0, len(vehicles))
	for _, v := range vehicles {
		srcs = append(srcs, g.Segment(v.Pos.Seg).To)
	}
	r.PrefetchTrees(srcs)
}

// regionDemand aggregates a per-segment prediction into per-region totals
// (index 0 unused). Keys are visited in sorted order so floating-point
// summation is independent of map iteration order — per-region totals,
// and everything derived from them, stay bit-identical across runs.
func regionDemand(g *roadnet.Graph, pred map[roadnet.SegmentID]float64, numRegions int) []float64 {
	keys := make([]roadnet.SegmentID, 0, len(pred))
	for seg := range pred {
		keys = append(keys, seg)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]float64, numRegions+1)
	for _, seg := range keys {
		n := pred[seg]
		if int(seg) < 0 || int(seg) >= g.NumSegments() || n <= 0 {
			continue
		}
		r := g.Segment(seg).Region
		if r >= 1 && r <= numRegions {
			out[r] += n
		}
	}
	return out
}

// rankedSegmentsInRegion returns the region's open segments that carry
// predicted demand, sorted by demand descending. The slice is empty when
// the region has no predicted demand on open segments.
func rankedSegmentsInRegion(snap *sim.Snapshot, region int, pred map[roadnet.SegmentID]float64) []roadnet.SegmentID {
	g := snap.City.Graph
	type segDemand struct {
		seg roadnet.SegmentID
		n   float64
	}
	var ranked []segDemand
	for seg, n := range pred {
		if n <= 0 || int(seg) < 0 || int(seg) >= g.NumSegments() {
			continue
		}
		s := g.Segment(seg)
		if s.Region != region {
			continue
		}
		if _, open := snap.Cost.SegmentTime(s); !open {
			continue
		}
		ranked = append(ranked, segDemand{seg: seg, n: n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].seg < ranked[j].seg
	})
	out := make([]roadnet.SegmentID, len(ranked))
	for i, sd := range ranked {
		out[i] = sd.seg
	}
	return out
}

// nearestOpenInRegion returns the region's segment nearest the region
// center that is open under cost, or NoSegment when cost closes the
// whole region.
func nearestOpenInRegion(snap *sim.Snapshot, cost roadnet.CostModel, region int) roadnet.SegmentID {
	g := snap.City.Graph
	center := snap.City.Regions[region].Center
	best := roadnet.NoSegment
	bestD := math.Inf(1)
	g.Segments(func(s roadnet.Segment) {
		if s.Region != region {
			return
		}
		if w, open := cost.SegmentTime(s); !open || math.IsInf(w, 1) {
			return
		}
		if d := geo.FastDistance(g.SegmentMidpoint(s.ID), center); d < bestD {
			bestD = d
			best = s.ID
		}
	})
	return best
}

// arrival is the time a team at pos needs to reach the end of segment
// s, which takes w seconds to drive, given the shortest-path tree and
// head time Router.TreeFromPosition returned for pos: head when the team
// is already on s, +Inf when s.From is unreachable.
func arrival(tree *roadnet.Tree, head float64, pos roadnet.Position, s roadnet.Segment, w float64) float64 {
	if pos.Seg == s.ID {
		return head
	}
	return head + tree.TimeTo(s.From) + w
}
