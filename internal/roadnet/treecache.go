package roadnet

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobirescue/internal/obs"
)

// Exported routing metric names (see README "Performance"). All series
// are registered by Router.EnableMetrics; without it the router runs
// metric-free at zero cost.
const (
	// MetricTreeCacheHits counts CachedTree calls answered with a tree
	// already computed under the current generation.
	MetricTreeCacheHits = "mobirescue_routing_tree_cache_hits_total"
	// MetricTreeCacheMisses counts CachedTree calls that had to run a
	// full Dijkstra (cold source or stale generation).
	MetricTreeCacheMisses = "mobirescue_routing_tree_cache_misses_total"
	// MetricTreeCacheEpochs counts tree generations started (rebinds to
	// a different road state plus explicit Invalidate calls).
	MetricTreeCacheEpochs = "mobirescue_routing_tree_cache_epochs_total"
	// MetricDijkstraSeconds is the latency histogram of single-source
	// Dijkstra computations (cache misses and uncached Tree calls).
	MetricDijkstraSeconds = "mobirescue_routing_dijkstra_seconds"
)

// routerMetrics holds the router's nil-safe metric handles. The zero
// value (all nil) disables observation; Router.Tree additionally checks
// dijkstraSeconds for nil so the no-metrics hot path never calls
// time.Now.
type routerMetrics struct {
	hits            *obs.Counter
	misses          *obs.Counter
	epochs          *obs.Counter
	dijkstraSeconds *obs.Histogram
}

// EnableMetrics registers the router's cache hit/miss/epoch counters and
// Dijkstra latency histogram with reg. A nil registry is a no-op. Call
// before concurrent use of the router.
func (r *Router) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.met = routerMetrics{
		hits:   reg.Counter(MetricTreeCacheHits, "Shortest-path tree cache hits."),
		misses: reg.Counter(MetricTreeCacheMisses, "Shortest-path tree cache misses (full Dijkstra runs)."),
		epochs: reg.Counter(MetricTreeCacheEpochs, "Tree cache generations (road-state changes/invalidations)."),
		dijkstraSeconds: reg.Histogram(MetricDijkstraSeconds,
			"Wall-clock single-source Dijkstra latency.", obs.DefSecondsBuckets),
	}
}

// nowNanos returns a monotonic-ish wall-clock reading for latency
// observation. Isolated in a helper so the hot path has exactly one
// call site to audit.
func nowNanos() int64 { return time.Now().UnixNano() }

// treeEntry is one cache slot: the shortest-path tree rooted at a
// source landmark, valid for the tree generation gen it was computed
// under, and the window it was last used in (for the CacheStats
// tally). The tree pointer is replaced — never recomputed in place —
// when the generation changes, because stragglers (e.g. a
// dispatch.Resilient primary that outlived its deadline) may still be
// reading the old tree; immutable trees make that merely stale, not
// racy.
type treeEntry struct {
	mu     sync.Mutex
	gen    uint64
	window uint64
	tree   *Tree
}

// treeCache is the router's road-state-scoped shortest-path tree cache.
//
// It carries two monotone counters, both starting at 1 so zero-valued
// entries always miss. gen is the tree generation: Invalidate (which a
// Rebind to a different road state calls) bumps it in O(1); no stored
// tree is cleared, stale entries are recomputed lazily on next use.
// Under one generation every CachedTree(src) call after the first is a
// pointer lookup, across any number of windows. window counts Rebind
// calls (and Invalidate calls), one per decision window in the
// simulator; it only drives the per-window CacheStats tally.
type treeCache struct {
	gen     atomic.Uint64
	window  atomic.Uint64
	mu      sync.RWMutex // guards entries map shape (not entry contents)
	entries map[LandmarkID]*treeEntry
	heaps   sync.Pool // *minHeap scratch for Router.Tree
}

func (c *treeCache) init() {
	c.gen.Store(1)
	c.window.Store(1)
	c.entries = make(map[LandmarkID]*treeEntry)
	c.heaps.New = func() any { return new(minHeap) }
}

func (c *treeCache) getHeap() *minHeap  { return c.heaps.Get().(*minHeap) }
func (c *treeCache) putHeap(h *minHeap) { c.heaps.Put(h) }

// entry returns the cache slot for src, creating it on first use.
func (c *treeCache) entry(src LandmarkID) *treeEntry {
	c.mu.RLock()
	e := c.entries[src]
	c.mu.RUnlock()
	if e != nil {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e = c.entries[src]; e == nil {
		e = &treeEntry{}
		c.entries[src] = e
	}
	return e
}

// Invalidate starts a new tree generation (and a new window) and
// returns the generation. Every cached tree becomes stale atomically in
// O(1); trees are recomputed lazily on next use. Trees already handed
// out remain readable (they are immutable), they just describe the
// previous weight column.
func (r *Router) Invalidate() uint64 {
	g := r.cache.gen.Add(1)
	r.cache.window.Add(1)
	r.met.epochs.Inc()
	return g
}

// CachedTree returns the shortest-path tree rooted at src for the
// current generation, computing it at most once per (src, generation)
// pair. It is safe for concurrent use: concurrent callers for the same
// source serialize on the entry and share one Dijkstra; callers for
// different sources proceed in parallel. The returned tree is shared
// and immutable — do not mutate it. The registry counters count real
// lookups and Dijkstra runs; the CacheStats tally counts per window.
func (r *Router) CachedTree(src LandmarkID) *Tree {
	// Load the generation before Tree loads the column: Rebind publishes
	// a column before bumping the generation, so a tree is never
	// stamped with a generation newer than its column.
	window := r.cache.window.Load()
	gen := r.cache.gen.Load()
	e := r.cache.entry(src)
	e.mu.Lock()
	firstUse := e.window != window
	e.window = window
	t := e.tree
	kept := t != nil && e.gen == gen
	if !kept {
		// Compute a brand-new tree (never reuse e.tree's storage — a
		// straggler may still be reading it) while holding the entry
		// lock so co-located callers wait for this one Dijkstra instead
		// of running their own.
		t = r.Tree(src)
		e.tree = t
		e.gen = gen
	}
	e.mu.Unlock()
	if kept {
		r.met.hits.Inc()
	} else {
		r.met.misses.Inc()
	}
	if r.stats != nil {
		if firstUse {
			r.stats.Misses.Add(1)
		} else {
			r.stats.Hits.Add(1)
		}
	}
	return t
}

// SetWorkers bounds the fan-out of PrefetchTrees (and is the default
// worker count callers of the routing layer consult); n <= 0 means
// GOMAXPROCS. Set at configuration time, before concurrent use.
func (r *Router) SetWorkers(n int) { r.workers = n }

// Workers returns the effective worker bound (always >= 1).
func (r *Router) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return runtime.GOMAXPROCS(0)
}

// PrefetchTrees warms the cache for every source landmark in srcs,
// computing missing trees in parallel across the router's worker bound.
// Duplicate sources are deduplicated; sources are processed in sorted
// order so the work split is deterministic. Results are identical to
// calling CachedTree for each source serially — prefetching is purely a
// latency optimization, which is what keeps parallel dispatchers
// byte-identical to their serial runs.
func (r *Router) PrefetchTrees(srcs []LandmarkID) {
	if len(srcs) == 0 {
		return
	}
	uniq := make([]LandmarkID, 0, len(srcs))
	seen := make(map[LandmarkID]bool, len(srcs))
	for _, s := range srcs {
		if !seen[s] && r.g.validLandmark(s) {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	if len(uniq) == 0 {
		return
	}
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	workers := r.Workers()
	if workers > len(uniq) {
		workers = len(uniq)
	}
	if workers <= 1 {
		for _, s := range uniq {
			r.CachedTree(s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(uniq) {
					return
				}
				r.CachedTree(uniq[i])
			}
		}()
	}
	wg.Wait()
}
