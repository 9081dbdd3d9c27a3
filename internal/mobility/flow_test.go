package mobility

import (
	"math"
	"testing"
	"time"

	"mobirescue/internal/roadnet"
)

func TestCountFlowsBasics(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	start := time.Date(2018, 9, 10, 0, 0, 0, 0, time.UTC)
	segA := roadnet.SegmentID(0)
	segB := roadnet.SegmentID(1)
	trips := []Trip{
		{PersonID: 1, Depart: start.Add(time.Hour), Segs: []roadnet.SegmentID{segA, segB}},
		{PersonID: 2, Depart: start.Add(time.Hour + 30*time.Minute), Segs: []roadnet.SegmentID{segA}},
		{PersonID: 3, Depart: start.Add(25 * time.Hour), Segs: []roadnet.SegmentID{segA}},       // hour 25
		{PersonID: 4, Depart: start.Add(-time.Hour), Segs: []roadnet.SegmentID{segA}},           // before window: dropped
		{PersonID: 5, Depart: start.Add(100 * 24 * time.Hour), Segs: []roadnet.SegmentID{segA}}, // after window: dropped
	}
	f := CountFlows(g, trips, start, 48)
	if got := f.At(segA, 1); got != 2 {
		t.Errorf("At(segA, 1) = %v, want 2", got)
	}
	if got := f.At(segB, 1); got != 1 {
		t.Errorf("At(segB, 1) = %v, want 1", got)
	}
	if got := f.At(segA, 25); got != 1 {
		t.Errorf("At(segA, 25) = %v, want 1", got)
	}
	if got := f.At(segA, 0); got != 0 {
		t.Errorf("At(segA, 0) = %v, want 0", got)
	}
	// Out-of-range queries are zero, not panics.
	if f.At(segA, -1) != 0 || f.At(segA, 48) != 0 || f.At(roadnet.SegmentID(-1), 1) != 0 {
		t.Error("out-of-range At should be 0")
	}
}

func TestRegionHourlyAveragesOverSegments(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	start := time.Date(2018, 9, 10, 0, 0, 0, 0, time.UTC)
	// Use two segments from region 1.
	segs := g.SegmentIDsByRegion()[1]
	if len(segs) < 2 {
		t.Fatal("region 1 needs at least 2 segments")
	}
	trips := []Trip{
		{Depart: start, Segs: []roadnet.SegmentID{segs[0]}},
		{Depart: start, Segs: []roadnet.SegmentID{segs[0]}},
		{Depart: start, Segs: []roadnet.SegmentID{segs[1]}},
	}
	f := CountFlows(g, trips, start, 24)
	hourly := f.RegionHourly(g, 1)
	want := 3.0 / float64(len(segs))
	if math.Abs(hourly[0]-want) > 1e-12 {
		t.Errorf("RegionHourly[0] = %v, want %v", hourly[0], want)
	}
	// Region with no segments: zeros.
	none := f.RegionHourly(g, 99)
	for _, v := range none {
		if v != 0 {
			t.Fatal("empty region should have zero flow")
		}
	}
}

func TestDailyMeans(t *testing.T) {
	city := smallCity(t)
	g := city.Graph
	start := time.Date(2018, 9, 10, 0, 0, 0, 0, time.UTC)
	seg := g.SegmentIDsByRegion()[2][0]
	var trips []Trip
	// 24 trips on day 0 (one per hour), none on day 1.
	for h := 0; h < 24; h++ {
		trips = append(trips, Trip{Depart: start.Add(time.Duration(h) * time.Hour), Segs: []roadnet.SegmentID{seg}})
	}
	f := CountFlows(g, trips, start, 48)
	if got := f.SegmentDailyMean(seg, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("day 0 mean = %v, want 1", got)
	}
	if got := f.SegmentDailyMean(seg, 1); got != 0 {
		t.Errorf("day 1 mean = %v, want 0", got)
	}
	if got := f.SegmentDailyMean(seg, 5); got != 0 {
		t.Errorf("out-of-window day mean = %v, want 0", got)
	}
	day := f.DayHourly(g, 2, 0)
	if len(day) != 24 {
		t.Errorf("DayHourly length = %d", len(day))
	}
	if got := f.DayHourly(g, 2, 99); got != nil {
		t.Errorf("out-of-window DayHourly = %v", got)
	}
}

// TestFlowShowsDisasterCollapse verifies the headline measurement
// (Figure 5): region flow collapses during the disaster and only partly
// recovers after.
func TestFlowShowsDisasterCollapse(t *testing.T) {
	city, _, ds := genTestDataset(t)
	g := city.Graph
	cfg := ds.Config
	f := CountFlows(g, ds.Trips, cfg.Start, cfg.Days*24)
	beforeDay := 0
	duringDay := cfg.DayIndex(cfg.DisasterStart.Add(24 * time.Hour))
	afterDay := cfg.DayIndex(cfg.DisasterEnd.Add(36 * time.Hour))
	// The test flood covers downtown: downtown flow collapses during the
	// disaster; every region's flow drops at least somewhat (no
	// commutes), and city-wide flow stays below the pre-disaster level.
	for region := 1; region <= 7; region++ {
		before := f.RegionDailyMean(g, region, beforeDay)
		during := f.RegionDailyMean(g, region, duringDay)
		if before <= 0 {
			t.Errorf("region %d has zero pre-disaster flow", region)
			continue
		}
		if during >= before {
			t.Errorf("region %d flow did not drop: before=%.3f during=%.3f", region, before, during)
		}
	}
	dtBefore := f.RegionDailyMean(g, roadnet.DowntownRegion, beforeDay)
	dtDuring := f.RegionDailyMean(g, roadnet.DowntownRegion, duringDay)
	if dtDuring >= dtBefore*0.3 {
		t.Errorf("flooded downtown flow did not collapse: before=%.3f during=%.3f", dtBefore, dtDuring)
	}
	_ = afterDay
}

func BenchmarkCountFlows(b *testing.B) {
	city := smallCity(b)
	cfg := smallConfig()
	cfg.NumPeople = 100
	ds, err := Generate(city, testDisaster(city, cfg), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CountFlows(city.Graph, ds.Trips, cfg.Start, cfg.Days*24)
	}
}
