package mobirescue

import (
	"sync"
	"testing"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/dispatch"
	"mobirescue/internal/ilp"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// benchFixture shares the expensive world construction across the
// per-figure benchmarks: one scenario, one trained system, one
// three-method comparison.
type benchFixture struct {
	sc  *core.Scenario
	sys *core.System
	m   *core.Measurement
	cmp *core.Comparison
	pq  *core.PredictionQuality
}

var (
	fixtureOnce sync.Once
	fixture     *benchFixture
	fixtureErr  error
)

func getFixture(b *testing.B) *benchFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		sc, err := core.BuildScenario(core.SmallScenarioConfig())
		if err != nil {
			fixtureErr = err
			return
		}
		sys, err := core.NewSystem(sc, core.DefaultSystemConfig())
		if err != nil {
			fixtureErr = err
			return
		}
		if _, err := sys.TrainRLParallel(4); err != nil {
			fixtureErr = err
			return
		}
		cmp, err := sys.RunComparison()
		if err != nil {
			fixtureErr = err
			return
		}
		pq, err := sys.PredictionQuality()
		if err != nil {
			fixtureErr = err
			return
		}
		fixture = &benchFixture{
			sc: sc, sys: sys, m: core.NewMeasurement(sc), cmp: cmp, pq: pq,
		}
	})
	if fixtureErr != nil {
		b.Fatalf("building bench fixture: %v", fixtureErr)
	}
	return fixture
}

// --- Measurement section: Table I and Figures 2-6 ---

func BenchmarkTable1Correlation(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := f.m.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if tbl.Precip >= 0 || tbl.Wind >= 0 || tbl.Altitude <= 0 {
			b.Fatalf("Table I signs wrong: %+v", tbl)
		}
	}
}

func BenchmarkFig2FlowRate(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := f.m.Fig2()
		if len(fig.Hours) != 24 {
			b.Fatal("Fig2 must cover 24 hours")
		}
	}
}

func BenchmarkFig3FlowDiffCDF(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cdf := f.m.Fig3(); cdf.Len() == 0 {
			b.Fatal("empty Fig3 CDF")
		}
	}
}

func BenchmarkFig4RescueDistribution(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dist := f.m.Fig4(); len(dist) == 0 {
			b.Fatal("empty Fig4 distribution")
		}
	}
}

func BenchmarkFig5PhaseFlow(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := f.m.Fig5()
		if len(fig.Regions) != 7 {
			b.Fatal("Fig5 must cover 7 regions")
		}
	}
}

func BenchmarkFig6HospitalDeliveries(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if daily := f.m.Fig6(); len(daily) == 0 {
			b.Fatal("empty Fig6 series")
		}
	}
}

// --- Evaluation section: Figures 9-16 ---

func BenchmarkFig9ServedRequests(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := f.cmp.Fig9()
		if len(series) != 3 {
			b.Fatal("Fig9 must cover 3 methods")
		}
	}
}

func BenchmarkFig10ServedCDF(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdfs := f.cmp.Fig10()
		if cdfs["MobiRescue"].Len() != f.cmp.Teams {
			b.Fatal("Fig10 must have one sample per team")
		}
	}
}

func BenchmarkFig11DrivingDelay(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := f.cmp.Fig11()
		if len(series["Schedule"]) != 24 {
			b.Fatal("Fig11 must cover 24 hours")
		}
	}
}

func BenchmarkFig12DelayCDF(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.cmp.Fig12()
	}
}

func BenchmarkFig13Timeliness(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.cmp.Fig13()
	}
}

func BenchmarkFig14ServingTeams(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := f.cmp.Fig14()
		if len(series) != 3 {
			b.Fatal("Fig14 must cover 3 methods")
		}
	}
}

func BenchmarkFig15PredictionAccuracy(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.pq.SVMAccuracy.Len() == 0 || f.pq.TSAAccuracy.Len() == 0 {
			b.Fatal("empty Fig15 CDFs")
		}
	}
}

func BenchmarkFig16PredictionPrecision(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.pq.SVMPrecision.Len() == 0 || f.pq.TSAPrecision.Len() == 0 {
			b.Fatal("empty Fig16 CDFs")
		}
	}
}

// --- Dispatch decision latency (the Figure 13 mechanism) ---

// benchSnapshot builds a dispatcher-visible snapshot of the evaluation
// day at noon with the full fleet idle at hospitals.
func benchSnapshot(b *testing.B, f *benchFixture) *sim.Snapshot {
	b.Helper()
	city := f.sc.City
	ep := f.sc.Eval
	at := ep.Data.Config.Start.Add(time.Duration(ep.PeakRequestDay())*24*time.Hour + 12*time.Hour)
	cost := sim.RescueCost{Base: ep.Disaster(city.Graph).CostAt(at)}
	snap := &sim.Snapshot{
		Time:   at,
		City:   city,
		Cost:   cost,
		Router: roadnet.NewRouter(city.Graph, cost),
	}
	starts, err := core.VehicleStarts(city, f.sys.Teams, 1)
	if err != nil {
		b.Fatal(err)
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
	return snap
}

func BenchmarkDispatchLatencyMobiRescue(b *testing.B) {
	f := getFixture(b)
	snap := benchSnapshot(b, f)
	f.sys.MR.SetTraining(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orders, _ := f.sys.MR.Decide(snap)
		if len(orders) == 0 {
			b.Fatal("MobiRescue issued no orders")
		}
	}
}

func BenchmarkDispatchLatencySchedule(b *testing.B) {
	f := getFixture(b)
	snap := benchSnapshot(b, f)
	s := dispatch.NewSchedule(f.sc.City.Graph, ilp.PaperLatency())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orders, delay := s.Decide(snap)
		if len(orders) == 0 || delay < time.Minute {
			b.Fatal("Schedule behaved unexpectedly")
		}
	}
}

func BenchmarkDispatchLatencyRescue(b *testing.B) {
	f := getFixture(b)
	snap := benchSnapshot(b, f)
	r, err := f.sys.NewRescueBaseline()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orders, delay := r.Decide(snap)
		if len(orders) == 0 || delay < time.Minute {
			b.Fatal("Rescue behaved unexpectedly")
		}
	}
}

// --- Full simulated evaluation days ---

func benchSimDay(b *testing.B, method string) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := f.sys.RunMethod(method, 0)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalServed() == 0 {
			b.Fatalf("%s served nothing", method)
		}
	}
}

func BenchmarkSimulateDayMobiRescue(b *testing.B) { benchSimDay(b, "mr") }
func BenchmarkSimulateDayRescue(b *testing.B)     { benchSimDay(b, "rescue") }
func BenchmarkSimulateDaySchedule(b *testing.B)   { benchSimDay(b, "schedule") }
