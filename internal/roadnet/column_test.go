package roadnet

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// treeReference is Router.Tree as it was before the router kept a weight
// column: it asks the cost model for every relaxed edge. It is the
// reference the column-driven Tree is pinned against.
func treeReference(g *Graph, cost CostModel, src LandmarkID) *Tree {
	n := g.NumLandmarks()
	t := &Tree{
		g:       g,
		Source:  src,
		dist:    make([]float64, n),
		prevSeg: make([]SegmentID, n),
		labeled: make([]bool, n),
	}
	if g.validLandmark(src) {
		h := new(minHeap)
		t.dist[src] = 0
		t.prevSeg[src] = NoSegment
		t.labeled[src] = true
		h.reset()
		h.push(pqItem{lm: src, dist: 0})
		for len(h.items) > 0 {
			item := h.pop()
			if item.dist > t.dist[item.lm] {
				continue // stale entry
			}
			for _, sid := range g.Out(item.lm) {
				seg := g.Segment(sid)
				w, open := cost.SegmentTime(seg)
				if !open || math.IsInf(w, 1) {
					continue
				}
				nd := item.dist + w
				to := seg.To
				if t.labeled[to] && nd >= t.dist[to] {
					continue
				}
				t.dist[to] = nd
				t.prevSeg[to] = sid
				t.labeled[to] = true
				h.push(pqItem{lm: to, dist: nd})
			}
		}
	}
	return t
}

// remainingTimeReference is the router's remainingTime before the weight
// column: a closed or +Inf segment is finished at free-flow time.
func remainingTimeReference(g *Graph, cost CostModel, pos Position) float64 {
	seg := g.Segment(pos.Seg)
	remaining := seg.Length - pos.Offset
	if remaining < 0 {
		remaining = 0
	}
	w, open := cost.SegmentTime(seg)
	if !open || math.IsInf(w, 1) {
		w = seg.FreeFlowTime()
	}
	if seg.Length <= 0 {
		return 0
	}
	return w * remaining / seg.Length
}

// routeReference is RouteToSegmentEnd before the weight column, over
// treeReference.
func routeReference(g *Graph, cost CostModel, pos Position, target SegmentID) (Route, error) {
	if pos.Seg == target {
		return Route{Segs: []SegmentID{target}, Time: remainingTimeReference(g, cost, pos)}, nil
	}
	tgt := g.Segment(target)
	tw, open := cost.SegmentTime(tgt)
	if !open || math.IsInf(tw, 1) {
		return Route{}, fmt.Errorf("%w: target segment %d closed", ErrNoPath, target)
	}
	tree := treeReference(g, cost, g.Segment(pos.Seg).To)
	if !tree.Reachable(tgt.From) {
		return Route{}, fmt.Errorf("%w: segment %d unreachable from position", ErrNoPath, target)
	}
	mid, err := tree.PathTo(tgt.From)
	if err != nil {
		return Route{}, err
	}
	segs := append(append([]SegmentID{pos.Seg}, mid...), target)
	return Route{Segs: segs, Time: remainingTimeReference(g, cost, pos) + tree.TimeTo(tgt.From) + tw}, nil
}

// infOpen reports its segments as open but impassable (+Inf), and every
// other segment at free flow: the column must skip both kinds of
// "closed" exactly as the per-edge rule did.
type infOpen map[SegmentID]bool

func (c infOpen) SegmentTime(s Segment) (float64, bool) {
	if c[s.ID] {
		return math.Inf(1), true
	}
	return s.FreeFlowTime(), true
}

// impassable reports whether cost forbids entering s.
func impassable(cost CostModel, s Segment) bool {
	w, open := cost.SegmentTime(s)
	return !open || math.IsInf(w, 1)
}

// everyNth returns the set of segment IDs divisible by n, offset by k.
func everyNth(g *Graph, n, k int) map[SegmentID]bool {
	set := make(map[SegmentID]bool)
	for i := k; i < g.NumSegments(); i += n {
		set[SegmentID(i)] = true
	}
	return set
}

// referenceCosts are the cost models the column is pinned under.
func referenceCosts(g *Graph) map[string]CostModel {
	return map[string]CostModel{
		"free-flow": FreeFlow{},
		"closures":  closedSet{closed: everyNth(g, 5, 2)},
		"slowdowns": closedSet{factor: 0.37},
		"both":      closedSet{closed: everyNth(g, 7, 3), factor: 0.61},
		"inf-open":  infOpen(everyNth(g, 4, 1)),
	}
}

// TestTreeMatchesReference pins the column-driven Tree, fresh and after
// a Rebind, to the per-edge reference for every source of the city.
func TestTreeMatchesReference(t *testing.T) {
	g := smallCity(t).Graph
	for name, cost := range referenceCosts(g) {
		t.Run(name, func(t *testing.T) {
			fresh := NewRouter(g, cost)
			rebound := NewRouter(g, nil)
			rebound.Rebind(cost)
			for lm := LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
				want := treeReference(g, cost, lm)
				sameTree(t, g, fresh.Tree(lm), want)
				sameTree(t, g, rebound.CachedTree(lm), want)
			}
		})
	}
}

// TestRouteFromImpassableSegmentMatchesReference stands a vehicle on a
// segment the cost model closes (or reports open at +Inf): it finishes
// that segment at free-flow time, routes on from its head exactly as the
// reference does, and is still refused a closed target.
func TestRouteFromImpassableSegmentMatchesReference(t *testing.T) {
	g := smallCity(t).Graph
	for name, cost := range referenceCosts(g) {
		t.Run(name, func(t *testing.T) {
			r := NewRouter(g, cost)
			stranded, refused := 0, 0
			for s := 0; s < g.NumSegments(); s += 3 {
				pos := Position{Seg: SegmentID(s), Offset: g.Segment(SegmentID(s)).Length / 3}
				if impassable(cost, g.Segment(pos.Seg)) {
					stranded++
				}
				_, head := r.TreeFromPosition(pos)
				if want := remainingTimeReference(g, cost, pos); head != want {
					t.Fatalf("segment %d: head time %v, reference %v", s, head, want)
				}
				for tgt := 0; tgt < g.NumSegments(); tgt += 11 {
					got, gerr := r.RouteToSegmentEnd(pos, SegmentID(tgt))
					want, werr := routeReference(g, cost, pos, SegmentID(tgt))
					if (gerr == nil) != (werr == nil) || (gerr != nil && !errors.Is(gerr, ErrNoPath)) {
						t.Fatalf("%d -> %d: error %v, reference %v", s, tgt, gerr, werr)
					}
					if gerr != nil {
						if impassable(cost, g.Segment(SegmentID(tgt))) {
							refused++
						}
						continue
					}
					if got.Time != want.Time || fmt.Sprint(got.Segs) != fmt.Sprint(want.Segs) {
						t.Fatalf("%d -> %d: route %v in %v s, reference %v in %v s",
							s, tgt, got.Segs, got.Time, want.Segs, want.Time)
					}
				}
			}
			if name != "free-flow" && name != "slowdowns" && (stranded == 0 || refused == 0) {
				t.Fatalf("fixture stood %d vehicles on and refused %d impassable segments, want both > 0", stranded, refused)
			}
		})
	}
}
