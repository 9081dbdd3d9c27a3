package roadnet

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"
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
		t.Fatal("CachedTree recomputed within one epoch")
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

// TestEpochInvalidationNeverServesStale is the chaos-surge/flood-window
// scenario: after the cost model changes (Rebind — what the simulator's
// refreshCost does each decision window, including when a chaos surge
// closes segments), the cache must never serve a tree computed under
// the old cost, while trees already handed out stay readable.
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
		t.Fatalf("Invalidate returned epoch %d after %d, want %d", next, inv, inv+1)
	}
	again := r.CachedTree(src)
	if again == after {
		t.Fatal("stale tree served after Invalidate")
	}
	sameTree(t, g, after, again)
}

// TestRouterConcurrentUse hammers one Router from many goroutines —
// cached tree reads, route requests, prefetches, and concurrent Rebind
// epoch bumps — and checks every answer is internally consistent. Run
// under -race (the CI race job does) this is the routing layer's
// concurrency safety net, covering the engine + N-dispatcher sharing
// pattern and the abandoned-Resilient-straggler pattern (old trees read
// after an epoch bump).
func TestRouterConcurrentUse(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	r := NewRouter(g, nil)
	r.SetWorkers(4)

	costs := []CostModel{
		nil, // FreeFlow via Rebind default
		closedSet{closed: map[SegmentID]bool{1: true, 2: true, 5: true}},
		closedSet{factor: 0.5},
	}
	stop := make(chan struct{})
	rebinderDone := make(chan struct{})
	// Rebinder: keeps flipping cost models / epochs.
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
				// goroutines have bumped the epoch.
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
	r := NewRouter(city.Graph, nil)
	r.EnableMetrics(reg)
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
}
