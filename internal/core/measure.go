package core

import (
	"fmt"
	"time"

	"mobirescue/internal/mobility"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/stats"
	"mobirescue/internal/weather"
)

// Measurement reproduces Section III's dataset analysis over the
// evaluation episode: it derives trips and vehicle flow rates from the
// generated traces and packages each table/figure's series.
type Measurement struct {
	sc   *Scenario
	flow *mobility.Flow
}

// NewMeasurement derives the flow statistics once for reuse across
// figures.
func NewMeasurement(sc *Scenario) *Measurement {
	cfg := sc.Eval.Data.Config
	flow := mobility.CountFlows(sc.City.Graph, sc.Eval.Data.Trips, cfg.Start, cfg.Days*24)
	return &Measurement{sc: sc, flow: flow}
}

// Table1 computes the Pearson correlation between each region's mean
// vehicle flow rate during the disaster and its disaster-related factors
// (precipitation, wind speed, altitude). Paper values: -0.897, -0.781,
// +0.739.
type Table1 struct {
	Precip, Wind, Altitude float64
}

// Table1 computes the correlation table. Samples are (region, day)
// observations over the whole window. Flow enters as the ratio to the
// region's own pre-disaster mean — regions differ hugely in baseline
// traffic (downtown carries several times a suburb's flow), and the
// construct the paper's correlation expresses is how strongly the
// disaster suppresses movement, not absolute volume. Precipitation and
// wind enter as trailing-24 h averages at the region center (the
// flood-relevant quantity: water on the ground, not instantaneous rain).
func (m *Measurement) Table1() (Table1, error) {
	sc := m.sc
	cfg := sc.Eval.Data.Config
	numRegions := sc.City.NumRegions()
	g := sc.City.Graph

	preDays := cfg.DayIndex(cfg.DisasterStart)
	if preDays < 1 {
		preDays = 1
	}
	var flows, precips, winds []float64
	var duringFlows, duringAlts []float64
	duringFrom := cfg.DayIndex(cfg.DisasterStart)
	duringTo := cfg.DayIndex(cfg.DisasterEnd)
	for r := 1; r <= numRegions; r++ {
		center := sc.City.Regions[r].Center
		base := 0.0
		for d := 0; d < preDays; d++ {
			base += m.flow.RegionDailyMean(g, r, d)
		}
		base /= float64(preDays)
		if base <= 0 {
			continue // region generated no pre-disaster traffic
		}
		// Precipitation and wind vary over time: sample the whole window,
		// with the meteorological factors as trailing windows matched to
		// the flood's drainage time constant (what suppresses flow is
		// water on the ground, which outlives the rain by days).
		for d := 0; d < cfg.Days; d++ {
			dayEnd := cfg.Start.Add(time.Duration(d+1) * 24 * time.Hour)
			f := weather.WindowFactors(sc.Eval.Storm, sc.Elev, center, dayEnd, 96*time.Hour)
			ratio := m.flow.RegionDailyMean(g, r, d) / base
			flows = append(flows, ratio)
			precips = append(precips, f.Precip)
			winds = append(winds, f.Wind)
			// Altitude only varies across regions, so its correlation is
			// measured where the cross-region contrast lives: the
			// disaster days, when high districts keep moving and low
			// ones are under water.
			if d >= duringFrom && d < duringTo {
				duringFlows = append(duringFlows, ratio)
				duringAlts = append(duringAlts, sc.City.Regions[r].BaseAltitude)
			}
		}
	}
	pc, err := stats.Pearson(flows, precips)
	if err != nil {
		return Table1{}, fmt.Errorf("core: precipitation correlation: %w", err)
	}
	wc, err := stats.Pearson(flows, winds)
	if err != nil {
		return Table1{}, fmt.Errorf("core: wind correlation: %w", err)
	}
	ac, err := stats.Pearson(duringFlows, duringAlts)
	if err != nil {
		return Table1{}, fmt.Errorf("core: altitude correlation: %w", err)
	}
	return Table1{Precip: pc, Wind: wc, Altitude: ac}, nil
}

// Fig2 is the hourly average vehicle flow rate of regions R1 and R2 on a
// pre-disaster day versus a post-disaster day.
type Fig2 struct {
	Hours    []int // 0..23
	R1Before []float64
	R1After  []float64
	R2Before []float64
	R2After  []float64
}

// Fig2 computes the before/after hourly flow comparison. The paper uses
// Aug 25 vs Sep 20; here day 0 (before) and the first full post-impact
// day (after), when flood water is still suppressing travel in the
// low-lying regions.
func (m *Measurement) Fig2() Fig2 {
	g := m.sc.City.Graph
	cfg := m.sc.Eval.Data.Config
	beforeDay := 0
	afterDay := cfg.DayIndex(cfg.DisasterEnd)
	out := Fig2{}
	for h := 0; h < 24; h++ {
		out.Hours = append(out.Hours, h)
	}
	out.R1Before = m.flow.DayHourly(g, 1, beforeDay)
	out.R1After = m.flow.DayHourly(g, 1, afterDay)
	out.R2Before = m.flow.DayHourly(g, 2, beforeDay)
	out.R2After = m.flow.DayHourly(g, 2, afterDay)
	return out
}

// Fig3 computes the CDF of each road segment's |before - after| average
// flow-rate difference.
func (m *Measurement) Fig3() *stats.CDF {
	g := m.sc.City.Graph
	cfg := m.sc.Eval.Data.Config
	beforeDay := 0
	afterDay := cfg.DayIndex(cfg.DisasterEnd)
	var diffs []float64
	g.Segments(func(s roadnet.Segment) {
		before := m.flow.SegmentDailyMean(s.ID, beforeDay)
		after := m.flow.SegmentDailyMean(s.ID, afterDay)
		d := before - after
		if d < 0 {
			d = -d
		}
		diffs = append(diffs, d)
	})
	return stats.NewCDF(diffs)
}

// Fig4 counts rescued people per region (the paper's heat map showing
// most rescues downtown). The counts come from the trace-derivation
// pipeline, like the paper's.
func (m *Measurement) Fig4() map[int]int {
	sc := m.sc
	rescued := mobility.LabelRescued(deliveries(sc.City, sc.Eval), sc.Eval.Flood.InFloodZone)
	out := make(map[int]int)
	for _, d := range rescued {
		out[sc.City.RegionAt(d.PrevPos)]++
	}
	return out
}

// Fig5 is the mean vehicle flow rate of each region in each disaster
// phase (before / during / after).
type Fig5 struct {
	Regions []int
	Before  []float64
	During  []float64
	After   []float64
}

// Fig5 computes the per-region phase means.
func (m *Measurement) Fig5() Fig5 {
	g := m.sc.City.Graph
	cfg := m.sc.Eval.Data.Config
	out := Fig5{}
	phaseMean := func(region int, fromDay, toDay int) float64 {
		sum, n := 0.0, 0
		for d := fromDay; d < toDay && d < cfg.Days; d++ {
			sum += m.flow.RegionDailyMean(g, region, d)
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	duringStart := cfg.DayIndex(cfg.DisasterStart)
	afterStart := cfg.DayIndex(cfg.DisasterEnd)
	for r := 1; r <= m.sc.City.NumRegions(); r++ {
		out.Regions = append(out.Regions, r)
		out.Before = append(out.Before, phaseMean(r, 0, duringStart))
		out.During = append(out.During, phaseMean(r, duringStart, afterStart))
		out.After = append(out.After, phaseMean(r, afterStart, cfg.Days))
	}
	return out
}

// Fig6 counts people delivered to hospitals per day via the hospital-stay
// heuristic (the paper's jump at disaster start).
func (m *Measurement) Fig6() []int {
	sc := m.sc
	cfg := sc.Eval.Data.Config
	out := make([]int, cfg.Days)
	for _, d := range deliveries(sc.City, sc.Eval) {
		day := cfg.DayIndex(d.Arrive)
		out[day]++
	}
	return out
}
