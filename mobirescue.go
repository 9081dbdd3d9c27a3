// Package mobirescue is an open reimplementation of MobiRescue, the
// human-mobility-based rescue team dispatching system of Yan et al.,
// "MobiRescue: Reinforcement Learning based Rescue Team Dispatching in a
// Flooding Disaster" (ICDCS 2020).
//
// The system runs periodically (every 5 minutes) during a flooding
// disaster and has three stages:
//
//  1. Human mobility information derivation — clean cellphone GPS
//     traces, map-match them onto a landmark/road-segment graph, and
//     derive trajectories, vehicle flow rates, and hospital-delivery
//     ground truth.
//  2. Rescue-request prediction — an SVM over per-person
//     disaster-related factor vectors (precipitation, wind speed,
//     altitude) predicts who needs rescue; summing per road segment
//     gives the predicted request distribution ñ_e.
//  3. RL-based dispatching — a deep-RL policy maps the state (team
//     positions, predicted request distribution) to per-team actions
//     (drive to a road segment, or return to the depot), maximizing
//     served requests while minimizing driving delay and the number of
//     serving teams (reward r = α·N^q − β·T^d − γ·N^m).
//
// Because the paper's substrate is proprietary (X-Mode GPS traces, NWS
// weather, SUMO/Flow), this module ships a complete synthetic substrate:
// a Charlotte-like seven-region road network, parametric hurricanes, a
// physical flood model, a disaster-aware population simulator, and a
// rescue-operations simulator, plus the paper's two comparison methods
// (Schedule [5] and Rescue [8]) on an assignment-solver substrate.
// See DESIGN.md for the full inventory and EXPERIMENTS.md for the
// paper-versus-measured results.
//
// # Quick start
//
//	sc, err := mobirescue.BuildScenario(mobirescue.SmallScenarioConfig())
//	if err != nil { ... }
//	sys, err := mobirescue.NewSystem(sc, mobirescue.DefaultSystemConfig())
//	if err != nil { ... }
//	if _, err := sys.TrainRLParallel(8); err != nil { ... }
//	cmp, err := sys.RunComparison()
//	if err != nil { ... }
//	fmt.Println(cmp.Results["MobiRescue"].TotalTimelyServed())
//
// The examples/ directory contains runnable programs for the common
// workflows, and cmd/ contains the experiment binaries that regenerate
// every table and figure of the paper.
package mobirescue

import (
	"mobirescue/internal/core"
)

// Re-exported scenario and system types; the implementation lives in
// internal packages, which also expose the individual substrates
// (road network, weather, flood, mobility, SVM, RL, simulator) for
// advanced use.
type (
	// ScenarioConfig controls world construction (city, population,
	// flood, storms).
	ScenarioConfig = core.ScenarioConfig
	// Scenario is the built world: city plus training and evaluation
	// disaster episodes.
	Scenario = core.Scenario
	// Episode is one disaster: storm, flood timeline, mobility dataset.
	Episode = core.Episode
	// SystemConfig tunes model training and the evaluation runs.
	SystemConfig = core.SystemConfig
	// System is the assembled MobiRescue stack: trained SVM, prediction
	// provider, RL dispatcher, and baselines.
	System = core.System
	// Comparison holds the three methods' results on the evaluation day.
	Comparison = core.Comparison
	// Measurement reproduces the paper's dataset-analysis section.
	Measurement = core.Measurement
	// Table1 is the factor/flow correlation table.
	Table1 = core.Table1
	// PredictionQuality is the Figures 15–16 comparison.
	PredictionQuality = core.PredictionQuality
)

// DefaultScenarioConfig returns the full-scale (8,590-person)
// configuration matching the paper's dataset.
func DefaultScenarioConfig() ScenarioConfig { return core.DefaultScenarioConfig() }

// SmallScenarioConfig returns a laptop-friendly scaled-down scenario.
func SmallScenarioConfig() ScenarioConfig { return core.SmallScenarioConfig() }

// DefaultSystemConfig returns paper-matching system defaults.
func DefaultSystemConfig() SystemConfig { return core.DefaultSystemConfig() }

// BuildScenario constructs the world: the synthetic city, both
// hurricanes' flood timelines, and both mobility datasets.
func BuildScenario(cfg ScenarioConfig) (*Scenario, error) { return core.BuildScenario(cfg) }

// NewSystem trains the SVM request predictor on the training episode and
// wires up the RL dispatcher (train it with System.TrainRLParallel).
func NewSystem(sc *Scenario, cfg SystemConfig) (*System, error) { return core.NewSystem(sc, cfg) }

// NewMeasurement derives the measurement-section statistics (Table I,
// Figures 2–6) from the evaluation episode.
func NewMeasurement(sc *Scenario) *Measurement { return core.NewMeasurement(sc) }

// MethodNames lists the compared dispatch methods in the paper's order:
// MobiRescue, Rescue, Schedule.
var MethodNames = core.MethodNames
