package roadnet

import "sync/atomic"

// CacheStats is a local (per-router) tree-cache hit/miss tally for
// callers that need per-window deltas — the obs registry counters are
// process-global and can't be attributed to one run when several
// simulations share a registry. It counts per window (the span between
// two Rebind calls), not per Dijkstra run: a source's first CachedTree
// call in a window is a miss even when the router kept its tree from an
// earlier window, and its later calls are hits. So the tally does not
// depend on how warm the router was when the window opened, and a
// process resumed from a snapshot, whose router starts cold, records
// the same numbers as the run it resumes. Counters are atomic because
// CachedTree is called from PrefetchTrees worker goroutines; the totals
// per decision window are nevertheless deterministic, because prefetch
// deduplicates sources and the simulator's decision loop is serial.
//
// Tracking is opt-in via Router.TrackCache: when no stats are attached
// the hot path pays exactly one predictable nil-check branch.
type CacheStats struct {
	Hits   atomic.Int64
	Misses atomic.Int64
}

// Totals returns the cumulative (hits, misses). Nil-safe.
func (s *CacheStats) Totals() (hits, misses int64) {
	if s == nil {
		return 0, 0
	}
	return s.Hits.Load(), s.Misses.Load()
}

// TrackCache attaches a local hit/miss tally to the router's tree
// cache; nil detaches. Set at configuration time, before concurrent
// use.
func (r *Router) TrackCache(s *CacheStats) { r.stats = s }
