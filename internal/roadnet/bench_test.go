package roadnet

import (
	"testing"
)

// benchCity builds the routing benchmark fixture: the default
// Charlotte-like seven-region city (~7*8*8 landmarks).
func benchCity(b *testing.B) *City {
	b.Helper()
	return mustCity(b, DefaultGenConfig())
}

// BenchmarkTree is the steady-state single-source Dijkstra: a reused
// Workspace, so the generation-stamped arrays and the typed heap are
// warm. TestTreeIntoZeroAlloc pins its 0 allocs/op.
func BenchmarkTree(b *testing.B) {
	city := benchCity(b)
	r := NewRouter(city.Graph, nil)
	ws := NewWorkspace()
	r.TreeInto(ws, city.Depot) // warm-up: allocate the arrays once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TreeInto(ws, city.Depot)
	}
}

// BenchmarkTreeCold allocates a fresh caller-owned tree per call — the
// seed implementation's only mode. Kept as the baseline the cached and
// workspace paths are compared against.
func BenchmarkTreeCold(b *testing.B) {
	city := benchCity(b)
	r := NewRouter(city.Graph, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Tree(city.Depot)
	}
}

// BenchmarkTreeCached is the epoch-cache hit path every dispatcher and
// the engine ride within a decision window: one mutex-guarded map
// lookup, no Dijkstra (TestRouterMetricsCounts pins that a hit never
// recomputes the tree).
func BenchmarkTreeCached(b *testing.B) {
	city := benchCity(b)
	r := NewRouter(city.Graph, nil)
	r.CachedTree(city.Depot) // warm the epoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CachedTree(city.Depot)
	}
}

// BenchmarkRouteToSegmentEnd plans full position-to-segment routes; with
// the tree cache warm this is path reconstruction plus slice assembly.
func BenchmarkRouteToSegmentEnd(b *testing.B) {
	city := benchCity(b)
	g := city.Graph
	r := NewRouter(g, nil)
	pos := Position{Seg: g.Out(city.Depot)[0]}
	target := SegmentID(g.NumSegments() - 1)
	if _, err := r.RouteToSegmentEnd(pos, target); err != nil {
		b.Fatalf("route fixture unreachable: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RouteToSegmentEnd(pos, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrefetchTrees measures warming one decision window's worth of
// trees (every landmark once) through the bounded worker pool.
func BenchmarkPrefetchTrees(b *testing.B) {
	city := benchCity(b)
	g := city.Graph
	srcs := make([]LandmarkID, g.NumLandmarks())
	for i := range srcs {
		srcs[i] = LandmarkID(i)
	}
	r := NewRouter(g, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Invalidate() // new window: all misses again
		r.PrefetchTrees(srcs)
	}
}
