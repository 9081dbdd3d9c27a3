// Command benchpredict measures the prediction fast path and writes the
// results as JSON (the BENCH_predict.json artifact `make bench`
// produces).
//
// Three kinds of numbers are reported:
//
//   - Micro-benchmarks of the per-person decision path, run through
//     testing.Benchmark: svm.DecisionInto (linear and RBF — the
//     0 allocs/op contract) against the retained pre-fast-path
//     DecisionReference, nn.ForwardInto against the allocating Forward,
//     and window factors three ways: the naive trailing scan, a
//     single-point weather.FactorIndex query (resolve the storm series,
//     then evaluate), and the per-person step of the prediction loop
//     (evaluate against an already resolved series).
//
//   - Wall-clock of PredictProvider.Predict per 5-minute window on the
//     evaluation episode: the retained pre-fast-path reference loop (the
//     baseline the >=5x acceptance criterion is measured against), the
//     fast path fully serial (Workers=1) cold and warm, cold at
//     Workers=2, and the sharded parallel path (Workers=0, GOMAXPROCS)
//     cold and warm.
//
//   - Byte-identity witnesses: the fast serial, 2-worker, parallel, and
//     reference distributions are compared per window; benchpredict fails loudly
//     on any mismatch, so the "no predicted distribution changes"
//     contract is checked on every bench run, not just in CI tests.
//
// With -smoke the wall-clock passes shrink to a single iteration and
// the command asserts the allocation contracts (0 allocs/op for
// svm.DecisionInto, nn.ForwardInto and weather.StormSeries.At) and
// identity witnesses without
// writing timings anyone should trust; CI's bench-smoke job runs this.
//
// Usage:
//
//	go run ./cmd/benchpredict -out BENCH_predict.json [-scale small] [-seed 1] [-windows 24] [-smoke]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/geo"
	"mobirescue/internal/nn"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/svm"
	"mobirescue/internal/weather"
)

// benchResult is one micro-benchmark line.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// predictResult is the PredictProvider wall-clock measurement.
type predictResult struct {
	Scale   string `json:"scale"`
	Seed    int64  `json:"seed"`
	People  int    `json:"people"`
	Windows int    `json:"windows"`
	Passes  int    `json:"passes"`
	// ReferenceNsPerWindow is the retained pre-fast-path implementation
	// (naive trailing-scan factors, reference kernel sum, fresh spatial
	// lookup per person, no cache) — the PR's baseline.
	ReferenceNsPerWindow float64 `json:"reference_ns_per_window"`
	// Serial/Parallel cold = uncached window computation; warm = cache
	// hits through the singleflight.
	SerialColdNsPerWindow   float64 `json:"serial_cold_ns_per_window"`
	SerialWarmNsPerWindow   float64 `json:"serial_warm_ns_per_window"`
	Workers2ColdNsPerWindow float64 `json:"workers2_cold_ns_per_window"`
	ParallelColdNsPerWindow float64 `json:"parallel_cold_ns_per_window"`
	ParallelWarmNsPerWindow float64 `json:"parallel_warm_ns_per_window"`
	// SingleThreadSpeedup is reference/serial_cold — the acceptance
	// criterion requires >= 5x.
	SingleThreadSpeedup float64 `json:"single_thread_speedup"`
	// ParallelSpeedup is serial_cold/parallel_cold (cold windows).
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// Identical is the byte-identity witness: fast serial == 2-worker
	// == parallel == reference distribution at every measured window.
	Identical bool `json:"results_identical"`
}

// report is the BENCH_predict.json document.
type report struct {
	GeneratedAt time.Time     `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Smoke       bool          `json:"smoke"`
	Micro       []benchResult `json:"micro"`
	Predict     predictResult `json:"predict"`
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

// trainMicroSVM fits a small model for the micro benchmarks (the system
// SVM is linear; an RBF twin exercises the flattened-SV path).
func trainMicroSVM(kernel svm.Kernel) (*svm.Model, error) {
	rng := rand.New(rand.NewSource(7))
	n, d := 120, 3
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()*3 + float64(j)
			s += row[j] * float64(j%3-1)
		}
		x[i] = row
		y[i] = s+rng.NormFloat64() > 0
	}
	cfg := svm.DefaultConfig()
	cfg.Kernel = kernel
	return svm.Train(x, y, cfg)
}

// microBenchmarks measures the per-person decision path and enforces
// the 0 allocs/op contracts.
func microBenchmarks() ([]benchResult, error) {
	var out []benchResult

	for _, k := range []svm.Kernel{svm.Linear{}, svm.RBF{Gamma: 0.3}} {
		m, err := trainMicroSVM(k)
		if err != nil {
			return nil, fmt.Errorf("training micro SVM (%s): %w", k.Name(), err)
		}
		ws := svm.NewWorkspace()
		x := []float64{3.5, 18, 230}
		m.DecisionInto(ws, x) // warm the workspace
		fast := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.DecisionInto(ws, x)
			}
		})
		fr := toResult("svm_decision_into_"+k.Name(), fast)
		if fr.AllocsPerOp != 0 {
			return nil, fmt.Errorf("svm.DecisionInto(%s) allocates %d/op, want 0", k.Name(), fr.AllocsPerOp)
		}
		out = append(out, fr)
		ref := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.DecisionReference(x)
			}
		})
		out = append(out, toResult("svm_decision_reference_"+k.Name(), ref))
	}

	// DQN-sized network: the action-selection hot loop.
	net, err := nn.New(1, []int{8, 64, 64, 6}, nn.ActReLU, nn.ActLinear)
	if err != nil {
		return nil, err
	}
	scratch := net.NewScratch()
	xin := make([]float64, 8)
	fwdInto := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.ForwardInto(xin, scratch)
		}
	})
	fi := toResult("nn_forward_into", fwdInto)
	if fi.AllocsPerOp != 0 {
		return nil, fmt.Errorf("nn.ForwardInto allocates %d/op, want 0", fi.AllocsPerOp)
	}
	out = append(out, fi)
	fwd := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net.Forward(xin)
		}
	})
	out = append(out, toResult("nn_forward_alloc", fwd))

	// Window factors: naive trailing scan vs the indexed storm series.
	start := time.Date(2018, 9, 12, 0, 0, 0, 0, time.UTC)
	city := weather.FlorencePreset(start, geoCharlotte())
	elev := func(p geoPoint) float64 { return 200 + 1500*(p.Lat-35.2) }
	p := geoCharlotte()
	at := start.Add(30 * time.Hour)
	naive := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			weather.WindowFactors(city, elev, p, at, 24*time.Hour)
		}
	})
	out = append(out, toResult("window_factors_naive", naive))
	fidx := weather.NewFactorIndex(city, elev, 24*time.Hour)
	fidx.WindowFactors(p, at)
	indexed := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fidx.WindowFactors(p, at)
		}
	})
	out = append(out, toResult("window_factors_indexed", indexed))
	var series weather.StormSeries
	fidx.SeriesInto(&series, at)
	perPerson := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			series.At(p)
		}
	})
	ps := toResult("window_factors_series", perPerson)
	if ps.AllocsPerOp != 0 {
		return nil, fmt.Errorf("weather.StormSeries.At allocates %d/op, want 0", ps.AllocsPerOp)
	}
	out = append(out, ps)
	return out, nil
}

// buildProvider constructs the scenario and a fresh eval-episode
// provider (no RL training needed: Predict is SVM-only).
func buildProvider(scale string, seed int64) (*core.Scenario, *core.PredictProvider, error) {
	scCfg, err := core.ScenarioConfigForScale(scale)
	if err != nil {
		return nil, nil, err
	}
	scCfg.Seed = seed
	sc, err := core.BuildScenario(scCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("building scenario: %w", err)
	}
	model, err := core.TrainSVM(sc.City, sc.Train, sc.Elev, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("training SVM: %w", err)
	}
	prov, err := core.NewPredictProvider(sc.City, sc.Eval, model, sc.Elev)
	if err != nil {
		return nil, nil, fmt.Errorf("building provider: %w", err)
	}
	return sc, prov, nil
}

// evalWindows returns n consecutive 5-minute windows starting at the
// evaluation peak day's morning — the per-window cadence the simulator
// queries Predict at.
func evalWindows(sc *core.Scenario, n int) []time.Time {
	base := sc.Eval.Data.Config.Start.
		Add(time.Duration(sc.Eval.PeakRequestDay()) * 24 * time.Hour).
		Add(8 * time.Hour)
	out := make([]time.Time, n)
	for i := range out {
		out[i] = base.Add(time.Duration(i) * 5 * time.Minute)
	}
	return out
}

// predictWallClock times the regimes and verifies byte-identity.
func predictWallClock(sc *core.Scenario, prov *core.PredictProvider, scale string, seed int64, windows, passes int) (predictResult, error) {
	pr := predictResult{
		Scale:   scale,
		Seed:    seed,
		People:  prov.NumPeople(),
		Windows: windows,
		Passes:  passes,
	}
	ts := evalWindows(sc, windows)

	// Reference distributions double as the identity witness.
	refDist := make([]map[roadnet.SegmentID]float64, len(ts))
	startRef := time.Now()
	for pass := 0; pass < passes; pass++ {
		for i, at := range ts {
			refDist[i] = prov.PredictReference(at)
		}
	}
	pr.ReferenceNsPerWindow = perWindow(startRef, passes, windows)

	measure := func(workers int, cold bool) (float64, []map[roadnet.SegmentID]float64, error) {
		prov.SetWorkers(workers)
		dist := make([]map[roadnet.SegmentID]float64, len(ts))
		if !cold {
			// Populate the cache once, untimed.
			prov.ResetCache()
			for _, at := range ts {
				prov.Predict(at)
			}
		}
		start := time.Now()
		for pass := 0; pass < passes; pass++ {
			if cold {
				prov.ResetCache()
			}
			for i, at := range ts {
				dist[i] = prov.Predict(at)
			}
		}
		return perWindow(start, passes, windows), dist, nil
	}

	var serialDist, workers2Dist, parallelDist []map[roadnet.SegmentID]float64
	var err error
	if pr.SerialColdNsPerWindow, serialDist, err = measure(1, true); err != nil {
		return pr, err
	}
	if pr.SerialWarmNsPerWindow, _, err = measure(1, false); err != nil {
		return pr, err
	}
	if pr.Workers2ColdNsPerWindow, workers2Dist, err = measure(2, true); err != nil {
		return pr, err
	}
	if pr.ParallelColdNsPerWindow, parallelDist, err = measure(0, true); err != nil {
		return pr, err
	}
	if pr.ParallelWarmNsPerWindow, _, err = measure(0, false); err != nil {
		return pr, err
	}

	pr.SingleThreadSpeedup = pr.ReferenceNsPerWindow / pr.SerialColdNsPerWindow
	pr.ParallelSpeedup = pr.SerialColdNsPerWindow / pr.ParallelColdNsPerWindow
	pr.Identical = true
	for i := range ts {
		if !reflect.DeepEqual(serialDist[i], refDist[i]) || !reflect.DeepEqual(workers2Dist[i], refDist[i]) ||
			!reflect.DeepEqual(parallelDist[i], refDist[i]) {
			pr.Identical = false
			return pr, fmt.Errorf("window %v: fast/2-worker/parallel/reference distributions differ — the fast path changed the prediction", ts[i])
		}
	}
	return pr, nil
}

func perWindow(start time.Time, passes, windows int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(passes*windows)
}

func main() {
	out := flag.String("out", "BENCH_predict.json", "output JSON path (- for stdout)")
	scale := flag.String("scale", "small", "scenario scale ("+core.ScaleNames+")")
	seed := flag.Int64("seed", 1, "scenario/SVM seed")
	windows := flag.Int("windows", 24, "5-minute windows to measure")
	passes := flag.Int("passes", 3, "timed passes over the window set")
	smoke := flag.Bool("smoke", false, "CI smoke mode: 1 window/pass, contracts only, no artifact timings to trust")
	flag.Parse()

	if *smoke {
		*windows, *passes = 2, 1
	}

	micro, err := microBenchmarks()
	if err != nil {
		log.Fatalf("benchpredict: %v", err)
	}
	sc, prov, err := buildProvider(*scale, *seed)
	if err != nil {
		log.Fatalf("benchpredict: %v", err)
	}
	pred, err := predictWallClock(sc, prov, *scale, *seed, *windows, *passes)
	if err != nil {
		log.Fatalf("benchpredict: %v", err)
	}
	if !*smoke && pred.SingleThreadSpeedup < 5 {
		log.Fatalf("benchpredict: single-thread speedup %.2fx < 5x acceptance floor", pred.SingleThreadSpeedup)
	}

	rep := report{
		GeneratedAt: time.Now().UTC(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Smoke:       *smoke,
		Micro:       micro,
		Predict:     pred,
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("benchpredict: %v", err)
	}
	doc = append(doc, '\n')
	if *smoke {
		// Smoke mode never overwrites the checked-in artifact; the run
		// is about contracts, not numbers.
		fmt.Printf("benchpredict: smoke ok (identity held, DecisionInto/ForwardInto/StormSeries.At 0 allocs/op, single-thread speedup %.2fx)\n",
			pred.SingleThreadSpeedup)
		return
	}
	if *out == "-" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatalf("benchpredict: %v", err)
	}
	fmt.Printf("benchpredict: wrote %s (single-thread speedup %.2fx, parallel %.2fx, warm hit %.0f ns/window)\n",
		*out, pred.SingleThreadSpeedup, pred.ParallelSpeedup, pred.SerialWarmNsPerWindow)
}

// geoPoint / geoCharlotte keep the weather micro-bench free of a direct
// geo import tangle.
type geoPoint = geo.Point

func geoCharlotte() geoPoint { return geoPoint{Lat: 35.2271, Lon: -80.8431} }
