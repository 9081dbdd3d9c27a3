// Command benchroute measures the routing fast path and the evaluation
// pipeline's parallel speedup, and writes the results as JSON (the
// BENCH_routing.json artifact `make bench` produces).
//
// Two kinds of numbers are reported:
//
//   - Micro-benchmarks of the roadnet layer, run through
//     testing.Benchmark on the default generated city: steady-state
//     workspace Dijkstra (the 0 allocs/op contract), the cold
//     caller-owned path, the epoch-cache hit path (the >=10x contract),
//     and full position-to-segment route planning.
//
//   - Wall-clock of dispatcher Decide calls with the window-scoped tree
//     cache warm vs invalidated before every call — the latter is what
//     the pre-cache implementation effectively did (recompute every
//     shortest-path tree on every use), so the ratio is the cache's
//     real per-decision-window win.
//
//   - Wall-clock of core.RunComparison — the three-method evaluation —
//     on one trained system: an untimed warm-up, then fully serial
//     (Workers=1), then the parallel worker pool (Workers=0, i.e.
//     GOMAXPROCS). All runs must produce byte-identical figures;
//     benchroute fails loudly if they do not, so the determinism
//     contract is checked on every bench run, not just in CI tests.
//
// Usage:
//
//	go run ./cmd/benchroute -out BENCH_routing.json [-scale small] [-seed 1] [-episodes 2]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// benchResult is one micro-benchmark line: the subset of
// testing.BenchmarkResult that the acceptance criteria reference.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// comparisonResult is the RunComparison wall-clock measurement. A full
// untimed warm-up comparison runs first so the timed serial and
// parallel runs see the same warm caches — otherwise the second run
// inherits the first run's prediction cache and the "speedup" is a
// cache artifact, not parallelism.
type comparisonResult struct {
	Scale         string `json:"scale"`
	Seed          int64  `json:"seed"`
	TrainEpisodes int    `json:"train_episodes"`
	Workers       int    `json:"workers"`
	// WarmupSeconds is the first (cold-cache, serial) comparison run.
	WarmupSeconds   float64 `json:"warmup_seconds"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	// ParallelSpeedup is serial/parallel on warm caches. On a
	// single-CPU host this is ~1.0 by construction; the pool only
	// helps when GOMAXPROCS > 1.
	ParallelSpeedup float64 `json:"parallel_speedup"`
	Identical       bool    `json:"results_identical"`
}

// decideResult measures one dispatcher's per-window Decide wall-clock
// with the window-scoped tree cache warm versus invalidated before
// every call — the latter approximates the seed implementation, which
// recomputed every shortest-path tree on every use. The speedup here is
// the tentpole's headline number and must be >= 2x.
type decideResult struct {
	Method          string  `json:"method"`
	CachedNsPerOp   float64 `json:"cached_ns_per_op"`
	UncachedNsPerOp float64 `json:"uncached_ns_per_op"`
	Speedup         float64 `json:"speedup"`
}

// report is the BENCH_routing.json document.
type report struct {
	GeneratedAt time.Time        `json:"generated_at"`
	GoVersion   string           `json:"go_version"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Routing     []benchResult    `json:"routing"`
	Decide      []decideResult   `json:"decide"`
	Comparison  comparisonResult `json:"comparison"`
}

func toResult(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// routingBenchmarks mirrors internal/roadnet's bench_test.go through the
// package's public API, so the JSON artifact and `go test -bench` agree
// on what is being measured.
func routingBenchmarks() ([]benchResult, error) {
	city, err := roadnet.GenerateCity(roadnet.DefaultGenConfig())
	if err != nil {
		return nil, fmt.Errorf("generating bench city: %w", err)
	}
	g := city.Graph
	var out []benchResult

	// Steady-state workspace Dijkstra: the 0 allocs/op contract.
	{
		r := roadnet.NewRouter(g, nil)
		ws := roadnet.NewWorkspace()
		r.TreeInto(ws, city.Depot)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.TreeInto(ws, city.Depot)
			}
		})
		out = append(out, toResult("tree_workspace", res))
	}

	// Cold caller-owned tree (the seed implementation's only mode).
	{
		r := roadnet.NewRouter(g, nil)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Tree(city.Depot)
			}
		})
		out = append(out, toResult("tree_cold", res))
	}

	// Epoch-cache hit: must be >=10x faster than tree_cold.
	{
		r := roadnet.NewRouter(g, nil)
		r.CachedTree(city.Depot)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.CachedTree(city.Depot)
			}
		})
		out = append(out, toResult("tree_cached", res))
	}

	// Full position-to-segment route on a warm cache.
	{
		r := roadnet.NewRouter(g, nil)
		pos := roadnet.Position{Seg: g.Out(city.Depot)[0]}
		target := roadnet.SegmentID(g.NumSegments() - 1)
		if _, err := r.RouteToSegmentEnd(pos, target); err != nil {
			return nil, fmt.Errorf("route fixture unreachable: %w", err)
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.RouteToSegmentEnd(pos, target); err != nil {
					b.Fatal(err)
				}
			}
		})
		out = append(out, toResult("route_to_segment_end", res))
	}
	return out, nil
}

// buildSystem constructs scenario and trained system for the wall-clock
// measurements.
func buildSystem(scale string, seed int64, episodes int) (*core.Scenario, *core.System, error) {
	scCfg, err := core.ScenarioConfigForScale(scale)
	if err != nil {
		return nil, nil, err
	}
	sc, err := core.BuildScenario(scCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building scenario: %w", err)
	}
	sysCfg := core.DefaultSystemConfig()
	sysCfg.Seed = seed
	sys, err := core.NewSystem(sc, sysCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building system: %w", err)
	}
	if _, err := sys.TrainRLParallel(episodes); err != nil {
		return nil, nil, fmt.Errorf("training RL: %w", err)
	}
	return sc, sys, nil
}

// decideSnapshot builds a dispatcher-visible snapshot of the evaluation
// day at noon with the full fleet idle (the root bench_test.go fixture,
// reproduced through the exported API).
func decideSnapshot(sc *core.Scenario, sys *core.System) (*sim.Snapshot, error) {
	city := sc.City
	ep := sc.Eval
	at := ep.Data.Config.Start.Add(time.Duration(ep.PeakRequestDay())*24*time.Hour + 12*time.Hour)
	cost := sim.RescueCost{Base: ep.Disaster(city.Graph).CostAt(at)}
	snap := &sim.Snapshot{
		Time:   at,
		City:   city,
		Cost:   cost,
		Router: roadnet.NewRouter(city.Graph, cost),
	}
	starts, err := core.VehicleStarts(city, sys.Teams, 1)
	if err != nil {
		return nil, err
	}
	for i, pos := range starts {
		snap.Vehicles = append(snap.Vehicles, sim.VehicleState{
			ID: sim.VehicleID(i), Pos: pos, Phase: sim.PhaseIdle,
		})
	}
	for i, r := range core.RequestsForDay(ep, ep.PeakRequestDay()) {
		if !r.AppearAt.After(at) {
			snap.ActiveRequests = append(snap.ActiveRequests, sim.RequestState{
				ID: sim.RequestID(i), Seg: r.Seg, AppearAt: r.AppearAt,
			})
		}
	}
	return snap, nil
}

// decideWallClock times dispatcher Decide calls with the snapshot
// router's tree cache warm vs invalidated before every call (the
// seed-equivalent recompute-per-use behavior).
func decideWallClock(sc *core.Scenario, sys *core.System) ([]decideResult, error) {
	snap, err := decideSnapshot(sc, sys)
	if err != nil {
		return nil, err
	}
	rescue, err := sys.NewRescueBaseline()
	if err != nil {
		return nil, err
	}
	sys.MR.SetTraining(false)
	dispatchers := []struct {
		name   string
		decide func() int
	}{
		{"mobirescue", func() int { orders, _ := sys.MR.Decide(snap); return len(orders) }},
		{"rescue", func() int { orders, _ := rescue.Decide(snap); return len(orders) }},
	}
	var out []decideResult
	for _, d := range dispatchers {
		if n := d.decide(); n == 0 { // warm-up + sanity
			return nil, fmt.Errorf("%s issued no orders", d.name)
		}
		cached := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.decide()
			}
		})
		uncached := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap.Router.Invalidate()
				d.decide()
			}
		})
		c := float64(cached.T.Nanoseconds()) / float64(cached.N)
		u := float64(uncached.T.Nanoseconds()) / float64(uncached.N)
		out = append(out, decideResult{
			Method:          d.name,
			CachedNsPerOp:   c,
			UncachedNsPerOp: u,
			Speedup:         u / c,
		})
	}
	return out, nil
}

// comparisonWallClock times RunComparison serial vs parallel on warm
// caches. The figures of both timed runs are marshaled and compared
// byte-for-byte: the worker pool must be a pure latency optimization.
func comparisonWallClock(sys *core.System, scale string, seed int64, episodes int) (comparisonResult, error) {
	var cr comparisonResult
	run := func(workers int) ([]byte, time.Duration, error) {
		sys.Config.Workers = workers
		start := time.Now()
		cmp, err := sys.RunComparison()
		if err != nil {
			return nil, 0, err
		}
		elapsed := time.Since(start)
		// Encode every comparison figure; this is the byte-identity
		// witness.
		doc, err := json.Marshal(map[string]any{
			"fig9":  cmp.Fig9(),
			"fig11": cmp.Fig11(),
			"fig13": cmp.Fig13(),
			"fig14": cmp.Fig14(),
		})
		return doc, elapsed, err
	}

	// Warm-up: populate the prediction and routing caches so the timed
	// serial/parallel pair differ only in worker count.
	warmDoc, warmT, err := run(1)
	if err != nil {
		return cr, fmt.Errorf("warm-up comparison: %w", err)
	}
	serialDoc, serialT, err := run(1)
	if err != nil {
		return cr, fmt.Errorf("serial comparison: %w", err)
	}
	parallelDoc, parallelT, err := run(0) // GOMAXPROCS
	if err != nil {
		return cr, fmt.Errorf("parallel comparison: %w", err)
	}

	cr = comparisonResult{
		Scale:           scale,
		Seed:            seed,
		TrainEpisodes:   episodes,
		Workers:         runtime.GOMAXPROCS(0),
		WarmupSeconds:   warmT.Seconds(),
		SerialSeconds:   serialT.Seconds(),
		ParallelSeconds: parallelT.Seconds(),
		ParallelSpeedup: serialT.Seconds() / parallelT.Seconds(),
		Identical: string(serialDoc) == string(parallelDoc) &&
			string(warmDoc) == string(serialDoc),
	}
	if !cr.Identical {
		return cr, fmt.Errorf("serial and parallel RunComparison figures differ — determinism contract broken")
	}
	return cr, nil
}

func main() {
	out := flag.String("out", "BENCH_routing.json", "output JSON path (- for stdout)")
	scale := flag.String("scale", "small", "scenario scale for the comparison wall-clock (small|paper)")
	seed := flag.Int64("seed", 1, "system seed")
	episodes := flag.Int("episodes", 2, "RL training episodes before the timed comparison")
	flag.Parse()

	routing, err := routingBenchmarks()
	if err != nil {
		log.Fatalf("benchroute: %v", err)
	}
	sc, sys, err := buildSystem(*scale, *seed, *episodes)
	if err != nil {
		log.Fatalf("benchroute: %v", err)
	}
	decide, err := decideWallClock(sc, sys)
	if err != nil {
		log.Fatalf("benchroute: %v", err)
	}
	cmp, err := comparisonWallClock(sys, *scale, *seed, *episodes)
	if err != nil {
		log.Fatalf("benchroute: %v", err)
	}
	rep := report{
		GeneratedAt: time.Now().UTC(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Routing:     routing,
		Decide:      decide,
		Comparison:  cmp,
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("benchroute: %v", err)
	}
	doc = append(doc, '\n')
	if *out == "-" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatalf("benchroute: %v", err)
	}
	best := 0.0
	for _, d := range decide {
		if d.Speedup > best {
			best = d.Speedup
		}
	}
	fmt.Printf("benchroute: wrote %s (cached tree %.0f ns/op, decide cache speedup up to %.2fx, parallel speedup %.2fx)\n",
		*out, pick(routing, "tree_cached"), best, cmp.ParallelSpeedup)
}

// pick returns the ns/op of the named routing benchmark (0 if missing).
func pick(rs []benchResult, name string) float64 {
	for _, r := range rs {
		if r.Name == name {
			return r.NsPerOp
		}
	}
	return 0
}
