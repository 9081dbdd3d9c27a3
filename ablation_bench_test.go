package mobirescue

// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// SVM kernel choice, flood-aware versus flood-blind routing, the
// IP-latency effect on timeliness, and the MR candidate-set size. Each
// reports its quality metric via b.ReportMetric so `go test -bench
// Ablation` doubles as an ablation table.

import (
	"math"
	"testing"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/dispatch"
	"mobirescue/internal/ilp"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
	"mobirescue/internal/stats"
	"mobirescue/internal/svm"
)

// svmEvalAccuracy trains a kernel on the fixture's training episode and
// scores per-person predictions on the evaluation episode.
func svmEvalAccuracy(b *testing.B, f *benchFixture, kernel svm.Kernel, c float64) stats.Confusion {
	b.Helper()
	x, y, err := core.BuildSVMTrainingSet(f.sc.City, f.sc.Train, f.sc.Elev, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := svm.DefaultConfig()
	cfg.Kernel = kernel
	cfg.C = c
	model, err := svm.Train(x, y, cfg)
	if err != nil {
		b.Fatal(err)
	}
	prov, err := core.NewPredictProvider(f.sc.City, f.sc.Eval, model, f.sc.Elev)
	if err != nil {
		b.Fatal(err)
	}
	ep := f.sc.Eval
	cfg2 := ep.Data.Config
	probe := cfg2.Start.Add(time.Duration(ep.PeakRequestDay())*24*time.Hour + 12*time.Hour)
	requestAt := map[int]time.Time{}
	for _, r := range ep.Data.Rescues {
		requestAt[r.PersonID] = r.RequestTime
	}
	var conf stats.Confusion
	for _, p := range ep.Data.People {
		truth := false
		at := probe
		if t, ok := requestAt[p.ID]; ok {
			truth = true
			at = t
		}
		pred, _, ok := prov.PredictPerson(p.ID, at)
		if !ok {
			continue
		}
		conf.Observe(pred, truth)
	}
	return conf
}

// BenchmarkAblationSVMKernelLinear and ...RBF compare the kernel choice
// (DESIGN.md §5.3) on cross-storm accuracy.
func BenchmarkAblationSVMKernelLinear(b *testing.B) {
	f := getFixture(b)
	var conf stats.Confusion
	for i := 0; i < b.N; i++ {
		conf = svmEvalAccuracy(b, f, svm.Linear{}, 10)
	}
	b.ReportMetric(conf.Accuracy(), "accuracy")
	b.ReportMetric(conf.Precision(), "precision")
}

func BenchmarkAblationSVMKernelRBF(b *testing.B) {
	f := getFixture(b)
	var conf stats.Confusion
	for i := 0; i < b.N; i++ {
		conf = svmEvalAccuracy(b, f, svm.RBF{Gamma: 1.0 / 3}, 10)
	}
	b.ReportMetric(conf.Accuracy(), "accuracy")
	b.ReportMetric(conf.Precision(), "precision")
}

// BenchmarkAblationFloodAwareRouting quantifies DESIGN.md §5.5: plan
// routes with and without flood awareness at the storm peak, then score
// each plan by its realized (flood-crawl) travel time.
func BenchmarkAblationFloodAwareRouting(b *testing.B) {
	f := getFixture(b)
	city := f.sc.City
	ep := f.sc.Eval
	at := ep.Data.Config.DisasterStart.Add(48 * time.Hour)
	real := sim.RescueCost{Base: ep.Disaster(city.Graph).CostAt(at)}
	aware := roadnet.NewRouter(city.Graph, real)
	blind := roadnet.NewRouter(city.Graph, roadnet.FreeFlow{})

	// Sample origin/destination pairs across hospitals and regions.
	var pairs []struct{ from, to roadnet.LandmarkID }
	for i, h := range city.Hospitals {
		for r := 1; r <= city.NumRegions(); r++ {
			to := city.Graph.NearestLandmark(city.Regions[r].Center)
			if to != roadnet.NoLandmark && to != h {
				pairs = append(pairs, struct{ from, to roadnet.LandmarkID }{h, to})
			}
		}
		_ = i
	}
	realized := func(route []roadnet.SegmentID) float64 {
		total := 0.0
		for _, sid := range route {
			w, _ := real.SegmentTime(city.Graph.Segment(sid))
			total += w
		}
		return total
	}
	var awareTotal, blindTotal float64
	for i := 0; i < b.N; i++ {
		awareTotal, blindTotal = 0, 0
		for _, p := range pairs {
			at := aware.Tree(p.from)
			bt := blind.Tree(p.from)
			if !at.Reachable(p.to) || !bt.Reachable(p.to) {
				continue
			}
			ap, err := at.PathTo(p.to)
			if err != nil {
				b.Fatal(err)
			}
			bp, err := bt.PathTo(p.to)
			if err != nil {
				b.Fatal(err)
			}
			awareTotal += realized(ap)
			blindTotal += realized(bp)
		}
	}
	if awareTotal > blindTotal+1e-9 {
		b.Fatalf("flood-aware routes slower than blind ones: %v vs %v", awareTotal, blindTotal)
	}
	if awareTotal > 0 {
		b.ReportMetric(blindTotal/awareTotal, "blind/aware-time-ratio")
	}
}

// BenchmarkAblationIPLatency quantifies DESIGN.md §5.4: the same
// Schedule dispatcher with and without the modeled IP solve time. The
// timely-served gap is the Figure 13 mechanism in isolation.
func BenchmarkAblationIPLatency(b *testing.B) {
	f := getFixture(b)
	run := func(lat ilp.LatencyModel) int {
		disp := dispatch.NewSchedule(f.sc.City.Graph, lat)
		res, err := f.sys.RunDispatcher(disp)
		if err != nil {
			b.Fatal(err)
		}
		return res.TotalTimelyServed()
	}
	var withLat, without int
	for i := 0; i < b.N; i++ {
		withLat = run(ilp.PaperLatency())
		without = run(ilp.LatencyModel{})
	}
	b.ReportMetric(float64(withLat), "timely-with-latency")
	b.ReportMetric(float64(without), "timely-without-latency")
	if without < withLat {
		b.Fatalf("removing IP latency should not hurt: %d vs %d", without, withLat)
	}
}

// BenchmarkAblationRewardGamma sweeps the serving-team weight γ
// (DESIGN.md §5.2) and reports the mean serving-team count a freshly
// trained policy settles on — higher γ should keep more teams home.
func BenchmarkAblationRewardGamma(b *testing.B) {
	if testing.Short() {
		b.Skip("trains two RL policies")
	}
	f := getFixture(b)
	meanServing := func(gamma float64) float64 {
		cfg := core.DefaultSystemConfig()
		cfg.MR = dispatch.DefaultMRConfig()
		cfg.MR.Gamma = gamma
		cfg.Teams = f.sys.Teams
		sys, err := core.NewSystem(f.sc, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.TrainRLParallel(3); err != nil {
			b.Fatal(err)
		}
		res, err := sys.RunMethod("mr", 0)
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range res.Rounds {
			sum += float64(r.Serving)
		}
		return sum / math.Max(1, float64(len(res.Rounds)))
	}
	var low, high float64
	for i := 0; i < b.N; i++ {
		low = meanServing(0.05)
		high = meanServing(2.0)
	}
	b.ReportMetric(low, "serving-gamma-0.05")
	b.ReportMetric(high, "serving-gamma-2.0")
}
