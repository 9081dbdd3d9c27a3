package core

import (
	"fmt"
	"hash/fnv"
	"runtime"

	"mobirescue/internal/obs/eventlog"
)

// Flight-recorder wiring for the assembled system: the System owns one
// optional eventlog.Log; every evaluation run records into a private
// eventlog.Recorder that is appended to the log in logical order (method
// order for RunComparison), never completion order. That reordering is
// what keeps the log byte-identical for any Workers value (the same
// contract the results themselves already carry).

// ConfigHash fingerprints a full scenario configuration as an FNV-64a
// over its printed form — cheap, stable across runs of the same build,
// and sensitive to every exported field, so "same scale name, different
// knobs" is detectable when diffing event logs.
func ConfigHash(cfg ScenarioConfig) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", cfg)
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// BuildManifest assembles the event-log header for a run of this system
// on the given scenario configuration. scale is the human name ("small",
// "mid", "full", or "" for a custom config).
func (s *System) BuildManifest(scale string, sc ScenarioConfig) eventlog.Manifest {
	m := eventlog.Manifest{
		Scale:       scale,
		ConfigHash:  ConfigHash(sc),
		Seed:        s.Config.Seed,
		TrainActors: s.trainActors(),
		Workers:     s.Config.Workers,
		GoVersion:   runtime.Version(),
	}
	if s.Config.Chaos.Enabled() {
		m.Chaos = s.Config.Chaos.Name
		m.ChaosSeed = s.Config.ChaosSeed
	}
	return m
}

// SetEventLog attaches a flight-recorder log to the system: every
// subsequent evaluation run (RunMethod, RunComparison, RunDispatcher)
// and training session records typed events into it. A nil log (the default) disables recording at zero cost.
// The caller keeps ownership of the log and must Close it.
func (s *System) SetEventLog(l *eventlog.Log) { s.evlog = l }
