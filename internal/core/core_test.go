package core

import (
	"sync"
	"testing"
	"time"

	"mobirescue/internal/sim"
)

// Scenario construction is the expensive fixture; share one across tests.
var (
	scOnce sync.Once
	scVal  *Scenario
	scErr  error
)

func testScenario(t testing.TB) *Scenario {
	t.Helper()
	scOnce.Do(func() {
		scVal, scErr = BuildScenario(SmallScenarioConfig())
	})
	if scErr != nil {
		t.Fatalf("BuildScenario: %v", scErr)
	}
	return scVal
}

var (
	sysOnce sync.Once
	sysVal  *System
	sysErr  error
)

func testSystem(t testing.TB) *System {
	t.Helper()
	sc := testScenario(t)
	sysOnce.Do(func() {
		cfg := DefaultSystemConfig()
		cfg.TrainEpisodes = 2
		sysVal, sysErr = NewSystem(sc, cfg)
	})
	if sysErr != nil {
		t.Fatalf("NewSystem: %v", sysErr)
	}
	return sysVal
}

func TestBuildScenarioValidation(t *testing.T) {
	cfg := SmallScenarioConfig()
	cfg.People = 0
	if _, err := BuildScenario(cfg); err == nil {
		t.Error("zero people should error")
	}
	cfg = SmallScenarioConfig()
	cfg.Days = 3
	if _, err := BuildScenario(cfg); err == nil {
		t.Error("too few days should error")
	}
}

func TestBuildScenarioShape(t *testing.T) {
	sc := testScenario(t)
	if sc.City.NumRegions() != 7 {
		t.Errorf("regions = %d", sc.City.NumRegions())
	}
	for name, ep := range map[string]*Episode{"train": sc.Train, "eval": sc.Eval} {
		if len(ep.Data.Rescues) == 0 {
			t.Errorf("%s episode has no rescues", name)
		}
		if len(ep.Data.Trips) == 0 {
			t.Errorf("%s episode has no trips", name)
		}
		// Road snapshots clamp to the flood history's last hour.
		if ep.Flood.RoadStateAt(sc.City.Graph, ep.Data.Config.End()).At.Before(ep.Data.Config.End()) {
			t.Errorf("%s flood history ends before the window", name)
		}
		// Requests should fall inside the disaster window.
		cfg := ep.Data.Config
		for _, r := range ep.Data.Rescues {
			if r.RequestTime.Before(cfg.DisasterStart) || !r.RequestTime.Before(cfg.DisasterEnd) {
				t.Fatalf("%s rescue at %v outside disaster window", name, r.RequestTime)
			}
		}
	}
	// The two episodes differ (different storm, different seed).
	if len(sc.Train.Data.Rescues) == len(sc.Eval.Data.Rescues) &&
		sc.Train.Data.Rescues[0].PersonID == sc.Eval.Data.Rescues[0].PersonID &&
		sc.Train.Data.Rescues[0].RequestTime.Equal(sc.Eval.Data.Rescues[0].RequestTime) {
		t.Error("training and evaluation episodes look identical")
	}
}

func TestEpisodeHelpers(t *testing.T) {
	sc := testScenario(t)
	ep := sc.Eval
	day := ep.PeakRequestDay()
	cfg := ep.Data.Config
	if day < cfg.DayIndex(cfg.DisasterStart) || day > cfg.DayIndex(cfg.DisasterEnd) {
		t.Errorf("peak day %d outside disaster days", day)
	}
	if ep.MaxDailyRequests() <= 0 {
		t.Error("MaxDailyRequests = 0")
	}
	reqs := RequestsForDay(ep, day)
	if len(reqs) == 0 {
		t.Fatal("no requests on the peak day")
	}
	dayStart := cfg.Start.Add(time.Duration(day) * 24 * time.Hour)
	for _, r := range reqs {
		if r.AppearAt.Before(dayStart) || !r.AppearAt.Before(dayStart.Add(24*time.Hour)) {
			t.Fatalf("request at %v outside day %d", r.AppearAt, day)
		}
	}
}

func TestVehicleStarts(t *testing.T) {
	sc := testScenario(t)
	starts, err := VehicleStarts(sc.City, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 20 {
		t.Fatalf("starts = %d", len(starts))
	}
	for _, pos := range starts {
		if int(pos.Seg) < 0 || int(pos.Seg) >= sc.City.Graph.NumSegments() {
			t.Fatalf("invalid start segment %d", pos.Seg)
		}
	}
	// Deterministic under the same seed.
	again, err := VehicleStarts(sc.City, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range starts {
		if starts[i] != again[i] {
			t.Fatal("VehicleStarts not deterministic")
		}
	}
}

func TestSVMTrainingSetAndModel(t *testing.T) {
	sc := testScenario(t)
	x, y, err := BuildSVMTrainingSet(sc.City, sc.Train, sc.Elev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != len(y) || len(x) < 4 {
		t.Fatalf("training set size %d", len(x))
	}
	pos, neg := 0, 0
	for _, label := range y {
		if label {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatalf("unbalanced training set: %d pos, %d neg", pos, neg)
	}
	model, err := TrainSVM(sc.City, sc.Train, sc.Elev, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Extreme conditions should classify sensibly.
	if !model.Predict([]float64{150, 70, 188}) {
		t.Error("severe conditions at low altitude should predict rescue")
	}
	if model.Predict([]float64{0, 0, 233}) {
		t.Error("calm conditions at high altitude should not predict rescue")
	}
}

func TestPredictProviderConcentratesDuringDisaster(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	cfg := sc.Eval.Data.Config
	total := func(t0 time.Time) float64 {
		s := 0.0
		for _, n := range sys.EvalProvider.Predict(t0) {
			s += n
		}
		return s
	}
	before := total(cfg.Start.Add(6 * time.Hour))
	mid := total(cfg.DisasterStart.Add(36 * time.Hour))
	if mid <= before {
		t.Errorf("predicted demand should spike during the disaster: before=%v mid=%v", before, mid)
	}
	if mid <= 0 {
		t.Error("no predicted demand at the storm peak")
	}
	// Cached result is identical (same map).
	again := total(cfg.DisasterStart.Add(36 * time.Hour))
	if again != mid {
		t.Errorf("cached prediction differs: %v vs %v", again, mid)
	}
}

func TestSystemTrainRLAndComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("full comparison is slow")
	}
	sys := testSystem(t)
	returns, err := sys.TrainRLParallel(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(returns) != 2 {
		t.Fatalf("returns = %v", returns)
	}
	cmp, err := sys.RunComparison()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MethodNames {
		if cmp.Results[name] == nil {
			t.Fatalf("missing result for %s", name)
		}
	}
	mr := cmp.Results["MobiRescue"]
	rescue := cmp.Results["Rescue"]
	schedule := cmp.Results["Schedule"]

	// Robust claim 1: the RL dispatcher computes orders in under a
	// second; the IP baselines take minutes (Figure 13's mechanism).
	if mr.MeanComputeDelay() >= time.Second {
		t.Errorf("MobiRescue compute delay = %v", mr.MeanComputeDelay())
	}
	for _, base := range []*sim.Result{rescue, schedule} {
		if base.MeanComputeDelay() < time.Minute {
			t.Errorf("%s compute delay = %v, want minutes", base.Method, base.MeanComputeDelay())
		}
	}

	// Robust claim 2 (Figure 14): the baselines keep essentially the
	// whole fleet deployed every round (only teams mid-delivery are
	// excluded); the full ordering against MobiRescue's demand-tracking
	// count is validated at experiment scale, not in this small fixture.
	meanServing := func(res *sim.Result) float64 {
		sum := 0.0
		for _, r := range res.Rounds {
			sum += float64(r.Serving)
		}
		return sum / float64(len(res.Rounds))
	}
	if got := meanServing(schedule); got < 0.7*float64(cmp.Teams) {
		t.Errorf("Schedule mean serving %.1f, want most of the %d-team fleet", got, cmp.Teams)
	}
	if got := meanServing(rescue); got < 0.7*float64(cmp.Teams) {
		t.Errorf("Rescue mean serving %.1f, want most of the %d-team fleet", got, cmp.Teams)
	}

	// Every method must actually rescue people on this scenario. The
	// MobiRescue > Rescue > Schedule ordering is asserted at experiment
	// scale (see EXPERIMENTS.md); this fixture trains the RL agent for
	// only two episodes.
	t.Logf("timely served: MR=%d Rescue=%d Schedule=%d of %d requests",
		mr.TotalTimelyServed(), rescue.TotalTimelyServed(), schedule.TotalTimelyServed(), len(mr.Requests))
	for _, res := range []*sim.Result{mr, rescue, schedule} {
		if res.TotalServed() == 0 {
			t.Errorf("%s served nothing", res.Method)
		}
	}

	// Figure extraction shapes.
	if len(cmp.Fig9()["MobiRescue"]) != 24 {
		t.Error("Fig9 should have 24 hourly buckets")
	}
	if cmp.Fig10()["Schedule"].Len() != cmp.Teams {
		t.Error("Fig10 CDF should have one sample per team")
	}
	for _, fig := range []map[string][]float64{cmp.Fig11(), cmp.Fig14()} {
		for name, series := range fig {
			if len(series) != 24 {
				t.Errorf("%s hourly series length %d", name, len(series))
			}
		}
	}
	_ = cmp.Fig12()
	_ = cmp.Fig13()
}

func TestPredictionQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("prediction quality needs the trained system")
	}
	sys := testSystem(t)
	pq, err := sys.PredictionQuality()
	if err != nil {
		t.Fatal(err)
	}
	if pq.SVMAccuracy.Len() == 0 || pq.TSAAccuracy.Len() == 0 {
		t.Fatal("empty per-segment CDFs")
	}
	// The headline claim (Figures 15-16): the factor-aware SVM beats the
	// factor-blind time-series baseline overall.
	if pq.SVMOverall.Accuracy() <= pq.TSAOverall.Accuracy() {
		t.Errorf("SVM accuracy %.3f should beat TSA %.3f",
			pq.SVMOverall.Accuracy(), pq.TSAOverall.Accuracy())
	}
}

func TestMeasurementTable1(t *testing.T) {
	sc := testScenario(t)
	m := NewMeasurement(sc)
	tbl, err := m.Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Paper signs: precipitation and wind negative, altitude positive.
	if tbl.Precip >= 0 {
		t.Errorf("precip correlation = %.3f, want negative", tbl.Precip)
	}
	if tbl.Wind >= 0 {
		t.Errorf("wind correlation = %.3f, want negative", tbl.Wind)
	}
	if tbl.Altitude <= 0 {
		t.Errorf("altitude correlation = %.3f, want positive", tbl.Altitude)
	}
}

func TestMeasurementFigures(t *testing.T) {
	sc := testScenario(t)
	m := NewMeasurement(sc)

	fig2 := m.Fig2()
	if len(fig2.Hours) != 24 || len(fig2.R1Before) != 24 || len(fig2.R2After) != 24 {
		t.Fatal("Fig2 series must have 24 hours")
	}
	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if meanOf(fig2.R2After) >= meanOf(fig2.R2Before) {
		t.Error("R2 flow should drop after the disaster")
	}

	fig3 := m.Fig3()
	if fig3.Len() != sc.City.Graph.NumSegments() {
		t.Errorf("Fig3 has %d samples, want one per segment", fig3.Len())
	}

	fig4 := m.Fig4()
	totalRescued := 0
	maxRegion, maxN := 0, -1
	for r, n := range fig4 {
		totalRescued += n
		if n > maxN {
			maxRegion, maxN = r, n
		}
	}
	if totalRescued == 0 {
		t.Fatal("Fig4 found no rescued people")
	}
	if maxRegion != 3 && maxRegion != 2 {
		t.Errorf("most rescues in region %d, expected the low-lying 3 (or 2)", maxRegion)
	}

	fig5 := m.Fig5()
	for i, r := range fig5.Regions {
		if fig5.During[i] >= fig5.Before[i] {
			t.Errorf("region %d: during-flow %.3f should be below before-flow %.3f", r, fig5.During[i], fig5.Before[i])
		}
	}

	fig6 := m.Fig6()
	cfg := sc.Eval.Data.Config
	preDay := 0
	disasterDay := cfg.DayIndex(cfg.DisasterStart) + 1
	if fig6[disasterDay] <= fig6[preDay] {
		t.Errorf("hospital deliveries should jump during the disaster: before=%d during=%d",
			fig6[preDay], fig6[disasterDay])
	}
}
