// Package core assembles the MobiRescue system end to end: it builds the
// scenario (city, hurricanes, flood timelines, synthetic population),
// trains the SVM request predictor on the training disaster (the paper
// trains on Hurricane Michael and evaluates on Hurricane Florence data),
// trains the RL dispatcher, and regenerates every table and figure of
// the paper's evaluation.
package core

import (
	"context"
	"fmt"
	"time"

	"mobirescue/internal/flood"
	"mobirescue/internal/geo"
	"mobirescue/internal/mobility"
	"mobirescue/internal/obs"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/weather"
)

// ScenarioConfig controls scenario construction.
type ScenarioConfig struct {
	// Seed drives every random choice.
	Seed int64
	// City configures the synthetic Charlotte generator.
	City roadnet.GenConfig
	// People is the population size (the paper's dataset has 8,590).
	People int
	// Days is the observation window length.
	Days int
	// FloodParams tunes the flood model.
	FloodParams flood.Params
	// TrapHazardPerHour overrides the mobility default when positive.
	TrapHazardPerHour float64
}

// DefaultScenarioConfig returns the full-scale configuration used by the
// experiment binaries.
func DefaultScenarioConfig() ScenarioConfig {
	return ScenarioConfig{
		Seed:        1,
		City:        roadnet.DefaultGenConfig(),
		People:      8590,
		Days:        10,
		FloodParams: flood.DefaultParams(),
	}
}

// SmallScenarioConfig returns a down-scaled configuration for tests and
// quick demos.
func SmallScenarioConfig() ScenarioConfig {
	cfg := DefaultScenarioConfig()
	cfg.City.GridRows, cfg.City.GridCols = 4, 4
	cfg.People = 400
	cfg.TrapHazardPerHour = 0.04
	return cfg
}

// MidScenarioConfig returns the intermediate scale the experiment
// binaries default to: the small city grown to a 6×6 grid with 2,000
// people.
func MidScenarioConfig() ScenarioConfig {
	cfg := SmallScenarioConfig()
	cfg.City.GridRows, cfg.City.GridCols = 6, 6
	cfg.People = 2000
	return cfg
}

// ScaleNames lists the scenario scales ScenarioConfigForScale accepts,
// for flag help strings.
const ScaleNames = "small, mid, or full"

// ScenarioConfigForScale maps a -scale flag value to its configuration —
// the single definition shared by every cmd/ binary.
func ScenarioConfigForScale(scale string) (ScenarioConfig, error) {
	switch scale {
	case "small":
		return SmallScenarioConfig(), nil
	case "mid":
		return MidScenarioConfig(), nil
	case "full":
		return DefaultScenarioConfig(), nil
	default:
		return ScenarioConfig{}, fmt.Errorf("core: unknown scale %q (want %s)", scale, ScaleNames)
	}
}

// Episode bundles one disaster's worth of world state: the storm, its
// flood timeline, and the mobility dataset observed under it.
type Episode struct {
	Storm *weather.Hurricane
	Flood *flood.History
	Data  *mobility.Dataset
}

// Scenario is the fully built world: the city plus a training episode
// (Michael-like storm) and an evaluation episode (Florence-like storm).
type Scenario struct {
	Config ScenarioConfig
	City   *roadnet.City
	Elev   func(geo.Point) float64
	// Train is the Michael-like episode used to fit the SVM and RL
	// models.
	Train *Episode
	// Eval is the Florence-like episode every figure is reported on.
	Eval *Episode
}

// historyDisaster adapts flood.History to mobility.Disaster and
// sim.CostProvider.
type historyDisaster struct {
	h *flood.History
	g *roadnet.Graph
}

func (d historyDisaster) InFloodZone(p geo.Point, t time.Time) bool {
	return d.h.InFloodZone(p, t)
}

// DepthAt implements mobility.DepthOracle, concentrating trapping where
// the water rises.
func (d historyDisaster) DepthAt(p geo.Point, t time.Time) float64 {
	return d.h.DepthAt(p, t)
}

func (d historyDisaster) CostAt(t time.Time) roadnet.CostModel {
	return d.h.RoadStateAt(d.g, t)
}

// Disaster returns the episode's flood as a mobility.Disaster /
// sim.CostProvider adapter.
func (e *Episode) Disaster(g *roadnet.Graph) historyDisaster {
	return historyDisaster{h: e.Flood, g: g}
}

// BuildScenario constructs the world: generates the city, simulates both
// hurricanes' floods, and generates both mobility datasets.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) {
	return BuildScenarioContext(context.Background(), cfg)
}

// BuildScenarioContext is BuildScenario with tracing: when ctx carries an
// obs tracer it records a scenario.build span with per-stage children
// (city generation, each episode's flood + mobility synthesis).
func BuildScenarioContext(ctx context.Context, cfg ScenarioConfig) (*Scenario, error) {
	ctx, buildSpan := obs.StartSpan(ctx, "scenario.build")
	defer buildSpan.End()
	if cfg.People <= 0 {
		return nil, fmt.Errorf("core: People must be positive")
	}
	if cfg.Days < 7 {
		return nil, fmt.Errorf("core: need at least 7 days (before/during/after), got %d", cfg.Days)
	}
	cfg.City.Seed = cfg.Seed
	_, citySpan := obs.StartSpan(ctx, "scenario.city")
	city, err := roadnet.GenerateCity(cfg.City)
	citySpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: generating city: %w", err)
	}
	elevFn := city.ElevationAt

	sc := &Scenario{Config: cfg, City: city, Elev: elevFn}
	bbox := city.Graph.BBox().Pad(3000)

	build := func(name string, storm *weather.Hurricane, mobCfg mobility.Config) (*Episode, error) {
		epCtx, epSpan := obs.StartSpan(ctx, "scenario.episode."+name)
		defer epSpan.End()
		if err := storm.Validate(); err != nil {
			return nil, err
		}
		_, floodSpan := obs.StartSpan(epCtx, "flood.history")
		model, err := flood.NewModel(storm, elevFn, bbox, mobCfg.Start, cfg.FloodParams)
		if err != nil {
			floodSpan.End()
			return nil, err
		}
		hist, err := flood.NewHistory(model, mobCfg.Days*24)
		floodSpan.End()
		if err != nil {
			return nil, err
		}
		ep := &Episode{Storm: storm, Flood: hist}
		_, mobSpan := obs.StartSpan(epCtx, "mobility.generate")
		data, err := mobility.Generate(city, historyDisaster{h: hist, g: city.Graph}, mobCfg)
		mobSpan.End()
		if err != nil {
			return nil, err
		}
		ep.Data = data
		return ep, nil
	}

	// Evaluation episode: Florence-like, Sep 10–19, impact Sep 12–15.
	evalCfg := mobility.DefaultConfig()
	evalCfg.Seed = cfg.Seed
	evalCfg.NumPeople = cfg.People
	evalCfg.Days = cfg.Days
	if cfg.TrapHazardPerHour > 0 {
		evalCfg.TrapHazardPerHour = cfg.TrapHazardPerHour
	}
	evalStorm := weather.FlorencePreset(evalCfg.DisasterStart, cfg.City.Center)
	evalEp, err := build("eval", evalStorm, evalCfg)
	if err != nil {
		return nil, fmt.Errorf("core: building eval episode: %w", err)
	}
	sc.Eval = evalEp

	// Training episode: Michael-like, one month later (Oct 7–16 in the
	// paper), different seed so the population behaves differently.
	trainCfg := evalCfg
	trainCfg.Seed = cfg.Seed + 1000
	trainCfg.Start = evalCfg.Start.Add(27 * 24 * time.Hour)
	trainCfg.DisasterStart = trainCfg.Start.Add(2 * 24 * time.Hour)
	trainCfg.DisasterEnd = trainCfg.DisasterStart.Add(60 * time.Hour)
	trainStorm := weather.MichaelPreset(trainCfg.DisasterStart, cfg.City.Center)
	trainEp, err := build("train", trainStorm, trainCfg)
	if err != nil {
		return nil, fmt.Errorf("core: building training episode: %w", err)
	}
	sc.Train = trainEp

	return sc, nil
}

// PeakRequestDay returns the 0-based evaluation day: the busiest request
// day among those with a meaningful request history on the preceding day.
// The paper evaluates Sep 16 — a high-request day *following* several
// request-heavy days — which is what gives the time-series baseline the
// history its prediction needs; picking the very first burst day would
// deny it by construction. When no day has history (single-burst
// disasters), the plain busiest day is returned.
func (e *Episode) PeakRequestDay() int {
	counts := make(map[int]int)
	cfg := e.Data.Config
	for _, r := range e.Data.Rescues {
		counts[cfg.DayIndex(r.RequestTime)]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	best, bestN := -1, -1
	for d, n := range counts {
		if counts[d-1]*10 < max {
			continue // previous day too quiet to train a time series on
		}
		if n > bestN || (n == bestN && d < best) {
			best, bestN = d, n
		}
	}
	if best < 0 {
		for d, n := range counts {
			if n > bestN || (n == bestN && d < best) {
				best, bestN = d, n
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// MaxDailyRequests returns the highest number of requests on any single
// day — the paper sizes the fleet this way.
func (e *Episode) MaxDailyRequests() int {
	counts := make(map[int]int)
	cfg := e.Data.Config
	for _, r := range e.Data.Rescues {
		counts[cfg.DayIndex(r.RequestTime)]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	return max
}
