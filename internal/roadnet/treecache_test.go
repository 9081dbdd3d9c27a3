package roadnet

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mobirescue/internal/obs"
)

// smallCity returns a compact but non-trivial generated city graph.
func smallCity(t testing.TB) *City {
	t.Helper()
	cfg := DefaultGenConfig()
	cfg.GridRows, cfg.GridCols = 4, 4
	return mustCity(t, cfg)
}

// sameTree asserts a and b agree on reachability, distance, and
// predecessor segment for every landmark.
func sameTree(t *testing.T, g *Graph, a, b *Tree) {
	t.Helper()
	for lm := LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
		da, db := a.TimeTo(lm), b.TimeTo(lm)
		if math.IsInf(da, 1) != math.IsInf(db, 1) {
			t.Fatalf("landmark %d: reachability differs (%v vs %v)", lm, da, db)
		}
		if !math.IsInf(da, 1) && da != db {
			t.Fatalf("landmark %d: dist %v != %v", lm, da, db)
		}
		pa, ea := a.PathTo(lm)
		pb, eb := b.PathTo(lm)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("landmark %d: PathTo errors differ (%v vs %v)", lm, ea, eb)
		}
		if len(pa) != len(pb) {
			t.Fatalf("landmark %d: path length %d != %d", lm, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("landmark %d: path hop %d is %d != %d", lm, i, pa[i], pb[i])
			}
		}
	}
}

// refPQ is the seed implementation's container/heap priority queue,
// kept verbatim as the ordering oracle for TestMinHeapMatchesContainerHeap.
type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// TestMinHeapMatchesContainerHeap pins the determinism contract: the
// typed heap must pop items — including equal-keyed ties, which the
// grid city produces constantly — in exactly the order the seed's
// container/heap queue popped them, or every equal-cost shortest path
// (and every golden comparison output downstream) silently changes.
func TestMinHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var h minHeap
		var ref refPQ
		h.reset()
		n := 1 + rng.Intn(200)
		for op := 0; op < n; op++ {
			// Mixed pushes and pops, with a small key universe so exact
			// ties are frequent.
			if len(ref) > 0 && rng.Intn(3) == 0 {
				got, want := h.pop(), heap.Pop(&ref).(pqItem)
				if got != want {
					t.Fatalf("trial %d op %d: pop = %+v, want %+v", trial, op, got, want)
				}
				continue
			}
			it := pqItem{lm: LandmarkID(rng.Intn(50)), dist: float64(rng.Intn(8))}
			h.push(it)
			heap.Push(&ref, it)
		}
		for len(ref) > 0 {
			got, want := h.pop(), heap.Pop(&ref).(pqItem)
			if got != want {
				t.Fatalf("trial %d drain: pop = %+v, want %+v", trial, got, want)
			}
		}
		if len(h.items) != 0 {
			t.Fatalf("trial %d: typed heap not drained (%d left)", trial, len(h.items))
		}
	}
}

func TestCachedTreeSharedWithinEpoch(t *testing.T) {
	city := smallCity(t)
	r := NewRouter(city.Graph, nil)
	src := city.Depot
	t1 := r.CachedTree(src)
	t2 := r.CachedTree(src)
	if t1 != t2 {
		t.Fatal("CachedTree recomputed within one generation")
	}
	sameTree(t, city.Graph, t1, r.Tree(src))
}

func TestCachedTreeMatchesTreeEverySource(t *testing.T) {
	city := smallCity(t)
	r := NewRouter(city.Graph, closedSet{closed: map[SegmentID]bool{3: true, 17: true}})
	for lm := LandmarkID(0); int(lm) < city.Graph.NumLandmarks(); lm += 7 {
		sameTree(t, city.Graph, r.CachedTree(lm), r.Tree(lm))
	}
}

// TestEpochInvalidationNeverServesStale is the chaos-surge/flood-hour
// scenario: after the cost model changes (Rebind — what the simulator's
// refreshCost does when a new flood hour opens or a chaos surge closes
// segments), the cache must never serve a tree computed under the old
// cost, while trees already handed out stay readable.
func TestEpochInvalidationNeverServesStale(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	r := NewRouter(g, nil)
	src := city.Depot

	before := r.CachedTree(src)

	// "Surge": close every outgoing segment of a landmark on a depot
	// shortest path, the way a chaos surge or a new flood window would.
	var victim LandmarkID = NoLandmark
	for lm := LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
		if lm != src && before.Reachable(lm) && len(g.Out(lm)) > 0 {
			victim = lm
			break
		}
	}
	if victim == NoLandmark {
		t.Fatal("no reachable landmark with outgoing segments")
	}
	closed := make(map[SegmentID]bool)
	for lm := LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
		for _, sid := range g.Out(lm) {
			if g.Segment(sid).To == victim || g.Segment(sid).From == victim {
				closed[sid] = true
			}
		}
	}
	r.Rebind(closedSet{closed: closed})

	after := r.CachedTree(src)
	if after == before {
		t.Fatal("stale tree served after Rebind")
	}
	if after.Reachable(victim) {
		t.Fatalf("tree served after surge closure still reaches isolated landmark %d", victim)
	}
	if !before.Reachable(victim) {
		t.Fatal("pre-surge tree mutated; cached trees must be immutable")
	}

	// Explicit Invalidate with an unchanged cost: fresh tree, same
	// answers.
	inv := r.Invalidate()
	if next := r.Invalidate(); next != inv+1 {
		t.Fatalf("Invalidate returned generation %d after %d, want %d", next, inv, inv+1)
	}
	again := r.CachedTree(src)
	if again == after {
		t.Fatal("stale tree served after Invalidate")
	}
	sameTree(t, g, after, again)
}

// TestRouterConcurrentUse hammers one Router from many goroutines —
// cached tree reads, route requests, prefetches, and concurrent Rebind
// calls, both same-state and generation-changing — and checks every
// answer is internally consistent. Run under -race (the CI race job
// does) this is the routing layer's concurrency safety net, covering
// the engine + N-dispatcher sharing pattern and the
// abandoned-Resilient-straggler pattern (old trees read after a new
// generation starts).
func TestRouterConcurrentUse(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	r := NewRouter(g, nil)
	r.SetWorkers(4)

	state := &countingState{factor: 0.8}
	costs := []CostModel{
		nil, // FreeFlow via Rebind default
		closedSet{closed: map[SegmentID]bool{1: true, 2: true, 5: true}},
		state,
		state, // same state: keeps the column and trees
		closedSet{factor: 0.5},
	}
	stop := make(chan struct{})
	rebinderDone := make(chan struct{})
	// Rebinder: keeps flipping cost models / generations.
	go func() {
		defer close(rebinderDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Rebind(costs[i%len(costs)])
		}
	}()
	const readers = 8
	var wg sync.WaitGroup
	wg.Add(readers)
	for w := 0; w < readers; w++ {
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			srcs := make([]LandmarkID, 4)
			for i := 0; i < 300; i++ {
				src := LandmarkID(rng.Intn(g.NumLandmarks()))
				tree := r.CachedTree(src)
				if tree.TimeTo(src) != 0 {
					t.Errorf("worker %d: source dist = %v, want 0", w, tree.TimeTo(src))
					return
				}
				// Straggler pattern: keep reading the tree after other
				// goroutines have started a new generation.
				if lm := LandmarkID(rng.Intn(g.NumLandmarks())); tree.Reachable(lm) {
					if _, err := tree.PathTo(lm); err != nil {
						t.Errorf("worker %d: PathTo on reachable landmark: %v", w, err)
						return
					}
				}
				for j := range srcs {
					srcs[j] = LandmarkID(rng.Intn(g.NumLandmarks()))
				}
				r.PrefetchTrees(srcs)
				seg := SegmentID(rng.Intn(g.NumSegments()))
				pos := Position{Seg: seg}
				if rt, err := r.RouteToSegmentEnd(pos, SegmentID(rng.Intn(g.NumSegments()))); err == nil {
					if len(rt.Segs) == 0 || rt.Segs[0] != seg {
						t.Errorf("worker %d: malformed route %+v", w, rt)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-rebinderDone
}

func TestPrefetchMatchesSerial(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	srcs := make([]LandmarkID, 0, g.NumLandmarks())
	for lm := LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
		srcs = append(srcs, lm, lm) // duplicates must dedupe
	}
	parallel := NewRouter(g, nil)
	parallel.SetWorkers(8)
	parallel.PrefetchTrees(srcs)
	serial := NewRouter(g, nil)
	serial.SetWorkers(1)
	for lm := LandmarkID(0); int(lm) < g.NumLandmarks(); lm++ {
		sameTree(t, g, parallel.CachedTree(lm), serial.CachedTree(lm))
	}
}

func TestRouterMetricsCounts(t *testing.T) {
	city := smallCity(t)
	reg := obs.NewRegistry()
	state := &countingState{factor: 1}
	r := NewRouter(city.Graph, state)
	r.EnableMetrics(reg)
	var stats CacheStats
	r.TrackCache(&stats)
	src := city.Depot
	r.CachedTree(src) // miss
	r.CachedTree(src) // hit
	r.Invalidate()
	r.CachedTree(src) // miss again
	hits := reg.Counter(MetricTreeCacheHits, "")
	misses := reg.Counter(MetricTreeCacheMisses, "")
	epochs := reg.Counter(MetricTreeCacheEpochs, "")
	if got := hits.Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := misses.Value(); got != 2 {
		t.Errorf("misses = %d, want 2", got)
	}
	if got := epochs.Value(); got != 1 {
		t.Errorf("epochs = %d, want 1", got)
	}
	hist := reg.Histogram(MetricDijkstraSeconds, "", obs.DefSecondsBuckets)
	if got := hist.Count(); got != 2 {
		t.Errorf("dijkstra histogram count = %d, want 2 (hits must not re-observe)", got)
	}
	if h, m := stats.Totals(); h != 1 || m != 2 {
		t.Errorf("CacheStats = %d hits, %d misses, want 1 and 2", h, m)
	}

	// A same-state rebind opens a new window but keeps the tree: the
	// window's first use counts as a CacheStats miss, while the
	// registry, which counts real lookups and Dijkstra runs, sees a hit.
	r.Rebind(state)
	r.CachedTree(src)
	r.CachedTree(src)
	if got := hits.Value(); got != 3 {
		t.Errorf("after same-state rebind: hits = %d, want 3", got)
	}
	if got := misses.Value(); got != 2 {
		t.Errorf("after same-state rebind: misses = %d, want 2 (no Dijkstra ran)", got)
	}
	if got := epochs.Value(); got != 1 {
		t.Errorf("after same-state rebind: epochs = %d, want 1", got)
	}
	if got := hist.Count(); got != 2 {
		t.Errorf("after same-state rebind: dijkstra histogram count = %d, want 2", got)
	}
	if h, m := stats.Totals(); h != 2 || m != 3 {
		t.Errorf("after same-state rebind: CacheStats = %d hits, %d misses, want 2 and 3", h, m)
	}
}

// countingState is a SnapshotCost test double: each *countingState is
// one road state, and it counts its SegmentTime calls.
type countingState struct {
	factor float64
	calls  atomic.Int64
}

func (c *countingState) SegmentTime(s Segment) (float64, bool) {
	c.calls.Add(1)
	return s.FreeFlowTime() / c.factor, true
}

func (c *countingState) SameAs(other CostModel) bool {
	o, ok := other.(*countingState)
	return ok && o == c
}

// TestRebindSameStateKeepsTrees pins the generation rule's fast path: a
// Rebind to the same road state keeps the weight column and every
// cached tree, asks the model nothing and allocates nothing.
func TestRebindSameStateKeepsTrees(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	state := &countingState{factor: 0.7}
	r := NewRouter(g, state)
	want := r.CachedTree(city.Depot)
	calls := state.calls.Load()
	if calls != int64(g.NumSegments()) {
		t.Fatalf("NewRouter made %d SegmentTime calls, want %d", calls, g.NumSegments())
	}
	var model CostModel = state
	for i := 0; i < 5; i++ {
		r.Rebind(model)
		if got := r.CachedTree(city.Depot); got != want {
			t.Fatalf("rebind %d to the same state recomputed the tree", i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.Rebind(model) }); allocs != 0 {
		t.Errorf("same-state Rebind allocates %v times, want 0", allocs)
	}
	if got := state.calls.Load(); got != calls {
		t.Errorf("same-state Rebind made %d SegmentTime calls, want 0", got-calls)
	}
	if r.CachedTree(city.Depot) != want {
		t.Fatal("tree dropped after same-state rebinds")
	}
	for sid := SegmentID(0); int(sid) < g.NumSegments(); sid++ {
		if w, _ := state.SegmentTime(g.Segment(sid)); r.Weight(sid) != w {
			t.Fatalf("Weight(%d) = %v, want %v", sid, r.Weight(sid), w)
		}
	}
}
