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
// # Commands
//
// Each job has one command; the implementation lives in internal/core
// and the substrate packages beside it.
//
//   - cmd/analyze reproduces the dataset measurement (Table I,
//     Figures 2–6) and analyzes flight-recorder logs (diff, timeline).
//   - cmd/experiments reproduces the evaluation (Figures 9–16).
//   - cmd/mobirescue runs one dispatch method end to end, for example
//     `go run ./cmd/mobirescue -scale small -method mr`.
//
// This package holds only this overview and the module-wide tests and
// benchmarks.
package mobirescue
