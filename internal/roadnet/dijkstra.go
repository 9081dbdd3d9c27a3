package roadnet

import (
	"fmt"
	"math"
	"sync/atomic"
)

// CostModel assigns a traversal time to each segment and reports whether
// the segment is currently open. The flood package provides a cost model
// reflecting the surviving network Ẽ; FreeFlow ignores the disaster.
//
// A Router asks its cost model once per segment, when it is built or
// rebound, and routes on those answers until the next Rebind; a model
// that changes afterwards goes unseen. Cost models must still be
// immutable snapshots, because dispatchers also read them directly
// (sim.Snapshot.Cost) throughout a decision window.
type CostModel interface {
	// SegmentTime returns the traversal time in seconds and whether the
	// segment is drivable.
	SegmentTime(s Segment) (seconds float64, open bool)
}

// FreeFlow is the disaster-free cost model: every segment is open at its
// speed limit.
type FreeFlow struct{}

var _ CostModel = FreeFlow{}

// SegmentTime implements CostModel.
func (FreeFlow) SegmentTime(s Segment) (float64, bool) { return s.FreeFlowTime(), true }

// costBox is the router's weight column: each segment's traversal time
// under the bound cost model, indexed by SegmentID, with +Inf where the
// segment is closed or impassable. Dijkstra reads it directly instead of
// asking the cost model on every relaxed edge. A column is never
// written after it is built, and Rebind swaps in a new box atomically,
// so stragglers (e.g. a dispatch.Resilient primary that outlived its
// deadline) still routing on the old column read stale data, never
// racy data.
type costBox struct{ col []float64 }

// newCostBox evaluates cost once per segment of g; nil means FreeFlow.
func newCostBox(g *Graph, cost CostModel) *costBox {
	if cost == nil {
		cost = FreeFlow{}
	}
	col := make([]float64, g.NumSegments())
	for i, s := range g.segments {
		w, open := cost.SegmentTime(s)
		if !open {
			w = math.Inf(1)
		}
		col[i] = w
	}
	return &costBox{col: col}
}

// Router computes time-shortest routes over a graph under a cost model.
//
// A Router is safe for concurrent routing. It carries an epoch-scoped
// shortest-path tree cache (see treecache.go): TreeFromPosition,
// CachedTree, and RouteToSegmentEnd share trees per source landmark
// within an epoch, and Rebind/Invalidate start a new epoch when the cost
// model changes (the simulator does this once per decision window).
type Router struct {
	g    *Graph
	cost atomic.Pointer[costBox]

	// workers bounds PrefetchTrees fan-out; 0 means GOMAXPROCS.
	// Set once at setup (SetWorkers), before concurrent use.
	workers int

	cache treeCache
	met   routerMetrics
	stats *CacheStats // optional local hit/miss tally (TrackCache)
}

// NewRouter returns a Router over g using cost. A nil cost defaults to
// FreeFlow.
func NewRouter(g *Graph, cost CostModel) *Router {
	r := &Router{g: g}
	r.cost.Store(newCostBox(g, cost))
	r.cache.init()
	return r
}

// Graph returns the underlying graph.
func (r *Router) Graph() *Graph { return r.g }

// Rebind builds the weight column of a new cost model (one SegmentTime
// call per segment), swaps it in and starts a new cache epoch, so no
// tree computed under the old cost is ever served again. This is the
// window-boundary entry point: instead of discarding the router (and all
// its warmed-up cache structure) each dispatch window, callers rebind the
// fresh cost snapshot in place. A nil cost means FreeFlow.
//
// Rebind is memory-safe under concurrency, but a routing call racing the
// rebind may observe either epoch's cost; callers needing strict window
// consistency (the simulator) rebind only at round boundaries.
func (r *Router) Rebind(cost CostModel) {
	// Order matters: publish the new cost before bumping the epoch, so
	// any reader that observes the new epoch also observes the new cost.
	r.cost.Store(newCostBox(r.g, cost))
	r.Invalidate()
}

// Tree is a single-source shortest-path tree produced by Router.Tree or
// the router's epoch-scoped tree cache.
//
// dist/prevSeg slots are meaningful only where labeled[i] is set, so a
// fresh tree needs no O(V) +Inf initialization. Trees are immutable once
// computed and remain readable even after an epoch bump (stragglers see
// consistent, merely stale data).
type Tree struct {
	g       *Graph
	Source  LandmarkID
	dist    []float64
	prevSeg []SegmentID
	labeled []bool
}

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	lm   LandmarkID
	dist float64
}

// minHeap is a typed binary min-heap of pqItems. Compared to the
// previous container/heap-driven queue it avoids interface{} boxing on
// every push/pop (the old code allocated one pqItem escape per Push)
// and reuses its backing slice across computations.
//
// Determinism contract: the sift order deliberately replicates
// container/heap (strict-less comparisons, left child preferred on
// ties), so nodes at equal distance settle in exactly the order the
// seed implementation settled them. That keeps every shortest-path tree
// — and therefore every simulated route, reroute, and figure — byte-
// identical to pre-optimization runs. A wider (e.g. 4-ary) heap would
// pop equal keys in a different order and silently pick different,
// equally-short paths; do not change the arity or the comparisons
// without re-pinning the golden comparison outputs.
type minHeap struct{ items []pqItem }

func (h *minHeap) reset() { h.items = h.items[:0] }

// push appends and sifts up, mirroring container/heap.Push + up.
func (h *minHeap) push(it pqItem) {
	h.items = append(h.items, it)
	j := len(h.items) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h.items[j].dist < h.items[i].dist) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		j = i
	}
}

// pop removes and returns the minimum, mirroring container/heap.Pop:
// swap root with the last element, sift the new root down over the
// shortened heap, then strip the old root off the tail.
func (h *minHeap) pop() pqItem {
	n := len(h.items) - 1
	h.items[0], h.items[n] = h.items[n], h.items[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child, preferred on ties like container/heap
		if j2 := j1 + 1; j2 < n && h.items[j2].dist < h.items[j1].dist {
			j = j2
		}
		if !(h.items[j].dist < h.items[i].dist) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
	top := h.items[n]
	h.items = h.items[:n]
	return top
}

// Tree runs Dijkstra from src over the weight column and returns a
// freshly allocated shortest-path tree the caller owns, using a pooled
// heap as scratch. A segment whose weight is +Inf is never entered.
// CachedTree runs it on a miss; other callers should prefer CachedTree,
// which shares one tree per (source, epoch).
func (r *Router) Tree(src LandmarkID) *Tree {
	var startNS int64
	if r.met.dijkstraSeconds != nil {
		startNS = nowNanos()
	}
	n := r.g.NumLandmarks()
	t := &Tree{
		g:       r.g,
		Source:  src,
		dist:    make([]float64, n),
		prevSeg: make([]SegmentID, n),
		labeled: make([]bool, n),
	}
	if r.g.validLandmark(src) {
		h := r.cache.getHeap()
		col := r.cost.Load().col
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
			for _, sid := range r.g.Out(item.lm) {
				w := col[sid]
				if math.IsInf(w, 1) {
					continue
				}
				nd := item.dist + w
				to := r.g.segments[sid].To
				if t.labeled[to] && nd >= t.dist[to] {
					continue
				}
				t.dist[to] = nd
				t.prevSeg[to] = sid
				t.labeled[to] = true
				h.push(pqItem{lm: to, dist: nd})
			}
		}
		r.cache.putHeap(h)
	}
	if r.met.dijkstraSeconds != nil {
		r.met.dijkstraSeconds.Observe(float64(nowNanos()-startNS) / 1e9)
	}
	return t
}

// TimeTo returns the travel time in seconds from the tree source to lm,
// or +Inf when unreachable.
func (t *Tree) TimeTo(lm LandmarkID) float64 {
	if lm < 0 || int(lm) >= len(t.labeled) || !t.labeled[lm] {
		return math.Inf(1)
	}
	return t.dist[lm]
}

// Reachable reports whether lm can be reached from the source.
func (t *Tree) Reachable(lm LandmarkID) bool { return !math.IsInf(t.TimeTo(lm), 1) }

// PathTo reconstructs the segment sequence from the source to lm. It
// returns ErrNoPath when lm is unreachable.
func (t *Tree) PathTo(lm LandmarkID) ([]SegmentID, error) {
	if !t.Reachable(lm) {
		return nil, fmt.Errorf("%w: landmark %d from %d", ErrNoPath, lm, t.Source)
	}
	var rev []SegmentID
	for cur := lm; cur != t.Source; {
		if !t.labeled[cur] {
			return nil, fmt.Errorf("%w: broken tree at landmark %d", ErrNoPath, cur)
		}
		sid := t.prevSeg[cur]
		if sid == NoSegment {
			return nil, fmt.Errorf("%w: broken tree at landmark %d", ErrNoPath, cur)
		}
		rev = append(rev, sid)
		cur = t.g.Segment(sid).From
	}
	// reverse in place
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// Route is a drivable route: an ordered segment sequence plus its total
// travel time in seconds. The first segment may be partially traversed
// (the caller's current position determines how much of it remains).
type Route struct {
	Segs []SegmentID
	Time float64 // seconds
}

// remainingTime returns the time to finish the segment the vehicle is on.
// A vehicle already on a segment may always finish it, even if the
// segment has since closed (it cannot teleport off the road); the closure
// only forbids entering new closed segments.
func (r *Router) remainingTime(pos Position) float64 {
	seg := r.g.Segment(pos.Seg)
	remaining := seg.Length - pos.Offset
	if remaining < 0 {
		remaining = 0
	}
	w := r.cost.Load().col[pos.Seg]
	if math.IsInf(w, 1) {
		// Traverse the rest at the free-flow time as a best effort.
		w = seg.FreeFlowTime()
	}
	if seg.Length <= 0 {
		return 0
	}
	return w * remaining / seg.Length
}

// RouteToSegmentEnd plans the time-shortest route from pos to the end of
// target, per the paper's dispatch semantics ("drive to the end of the
// destination road segment"). The returned route's first element is
// pos.Seg (possibly partially traversed) and its last element is target.
// The underlying shortest-path tree comes from the epoch-scoped cache,
// so repeated route requests from the same landmark within a window pay
// one Dijkstra total.
func (r *Router) RouteToSegmentEnd(pos Position, target SegmentID) (Route, error) {
	if !r.g.validSegment(pos.Seg) || !r.g.validSegment(target) {
		return Route{}, fmt.Errorf("roadnet: invalid segment in route request (%d -> %d)", pos.Seg, target)
	}
	if pos.Seg == target {
		return Route{Segs: []SegmentID{target}, Time: r.remainingTime(pos)}, nil
	}
	tgt := r.g.Segment(target)
	tw := r.cost.Load().col[target]
	if math.IsInf(tw, 1) {
		return Route{}, fmt.Errorf("%w: target segment %d closed", ErrNoPath, target)
	}
	startLM := r.g.Segment(pos.Seg).To
	tree := r.CachedTree(startLM)
	if !tree.Reachable(tgt.From) {
		return Route{}, fmt.Errorf("%w: segment %d unreachable from position", ErrNoPath, target)
	}
	mid, err := tree.PathTo(tgt.From)
	if err != nil {
		return Route{}, err
	}
	segs := make([]SegmentID, 0, len(mid)+2)
	segs = append(segs, pos.Seg)
	segs = append(segs, mid...)
	segs = append(segs, target)
	total := r.remainingTime(pos) + tree.TimeTo(tgt.From) + tw
	return Route{Segs: segs, Time: total}, nil
}

// TreeFromPosition returns the shortest-path tree from the head landmark
// of the segment the vehicle is on, and the time to finish that segment.
// TimeTo(lm)+head gives the full position-to-landmark time. The tree
// comes from the epoch-scoped cache: vehicles co-located at a landmark
// (a depot, a hospital) share one Dijkstra per decision window instead
// of paying one each.
func (r *Router) TreeFromPosition(pos Position) (tree *Tree, head float64) {
	seg := r.g.Segment(pos.Seg)
	return r.CachedTree(seg.To), r.remainingTime(pos)
}
