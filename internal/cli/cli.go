// Package cli binds the flags cmd/mobirescue and cmd/experiments share
// and does the set-up both run from them: CPU/heap profiles, the
// scenario and system, crash-safe snapshots with resume, and the flight
// recorder. Each command passes its own defaults and keeps its own
// flags.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"syscall"
	"time"

	"mobirescue/internal/chaos"
	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/snapshot"
)

// Defaults are a command's own defaults for the shared flags.
type Defaults struct {
	Scale         string
	Episodes      int
	EpisodesUsage string
}

// The commands' defaults: cmd/mobirescue runs one quick method at the
// small scale, cmd/experiments the paper's comparison at the mid scale.
var (
	MobiRescue = Defaults{
		Scale:         "small",
		Episodes:      6,
		EpisodesUsage: "RL training episodes (mr only; 0 = evaluate the policy as initialized or loaded)",
	}
	Experiments = Defaults{
		Scale:         "mid",
		Episodes:      0,
		EpisodesUsage: "RL training episodes (0 = config default, negative = skip training)",
	}
)

// Flags holds the shared flag values.
type Flags struct {
	Scale          string
	Episodes       int
	Teams          int
	Seed           int64
	Chaos          string
	ChaosSeed      int64
	Obs            string
	Workers        int
	TrainWorkers   int
	TrainActors    int
	SavePolicy     string
	LoadPolicy     string
	EventLog       string
	EventLogTiming bool
	DecideDeadline time.Duration
	SnapshotDir    string
	SnapshotEvery  int
	SnapshotKeep   int
	Resume         bool
	CPUProfile     string
	MemProfile     string
}

// Register declares the shared flags on fs with d's defaults.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Scale, "scale", d.Scale, "scenario scale: "+core.ScaleNames)
	fs.IntVar(&f.Episodes, "episodes", d.Episodes, d.EpisodesUsage)
	fs.IntVar(&f.Teams, "teams", 0, "fleet size (0 = max daily requests, like the paper)")
	fs.Int64Var(&f.Seed, "seed", 1, "random seed")
	fs.StringVar(&f.Chaos, "chaos", "off", "chaos profile: "+chaos.ProfileNames)
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 1, "chaos fault-schedule seed")
	fs.StringVar(&f.Obs, "obs", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8080)")
	fs.IntVar(&f.Workers, "workers", 0, "parallelism bound for routing prefetch and evaluation runs (0 = GOMAXPROCS, 1 = serial; results are identical for any value)")
	fs.IntVar(&f.TrainWorkers, "train-workers", 0, "parallel rollout bound for RL training (0 = -workers, then GOMAXPROCS; the trained policy is identical for any value)")
	fs.IntVar(&f.TrainActors, "train-actors", 0, "logical actor count for RL training (0 = default 4; changes the training experiment, not just its speed)")
	fs.StringVar(&f.SavePolicy, "save-policy", "", "write the trained policy checkpoint to this file (also checkpointed during training)")
	fs.StringVar(&f.LoadPolicy, "load-policy", "", "warm-start the policy from this checkpoint before training/evaluation")
	fs.StringVar(&f.EventLog, "eventlog", "", "record the flight-recorder event stream (JSONL) to this file")
	fs.BoolVar(&f.EventLogTiming, "eventlog-timing", false, "include wall-clock fields in -eventlog (breaks cross-run byte-identity)")
	fs.DurationVar(&f.DecideDeadline, "decide-deadline", 0, "resilient wrapper's wall-clock Decide deadline in chaos runs (0 = default 5s); expirations emit a typed deadline event")
	fs.StringVar(&f.SnapshotDir, "snapshot-dir", "", "install crash-safe run snapshots into this directory (see -resume)")
	fs.IntVar(&f.SnapshotEvery, "snapshot-every", 1, "snapshot cadence in dispatch windows / training rounds")
	fs.IntVar(&f.SnapshotKeep, "snapshot-keep", snapshot.DefaultKeep, "newest snapshot generations to keep")
	fs.BoolVar(&f.Resume, "resume", false, "resume from the latest valid snapshot in -snapshot-dir (same flags as the original run; fresh start when none)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocs/heap profile to this file at exit")
	return f
}

// validate rejects flag combinations that cannot do what they say.
func (f *Flags) validate() error {
	if f.Resume && f.SnapshotDir == "" {
		return errors.New("-resume needs -snapshot-dir")
	}
	return nil
}

// Parse parses args into fs and validates the shared flags. A usage
// error prints the message and fs's usage and exits 2, as the flag
// package does for its own errors.
func (f *Flags) Parse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if err := f.validate(); err != nil {
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		os.Exit(2)
	}
}

// StartProfiles starts -cpuprofile and arms -memprofile. The returned
// stop writes the heap profile and ends the CPU profile; call it at
// exit.
func (f *Flags) StartProfiles(logger *slog.Logger) (stop func(), err error) {
	stopCPU := func() error { return nil }
	if f.CPUProfile != "" {
		if stopCPU, err = obs.StartCPUProfile(f.CPUProfile); err != nil {
			return nil, err
		}
	}
	return func() {
		if f.MemProfile != "" {
			if err := obs.WriteHeapProfile(f.MemProfile); err != nil {
				logger.Warn("writing mem profile", slog.Any("err", err))
			}
		}
		stopCPU()
	}, nil
}

// ScenarioConfig is the scenario configuration -scale and -seed select.
func (f *Flags) ScenarioConfig() (core.ScenarioConfig, error) {
	cfg, err := core.ScenarioConfigForScale(f.Scale)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = f.Seed
	return cfg, nil
}

// systemConfig is the system configuration the flags describe, with
// observability wired to reg and logger.
func (f *Flags) systemConfig(reg *obs.Registry, logger *slog.Logger) core.SystemConfig {
	cfg := core.DefaultSystemConfig()
	cfg.Seed = f.Seed
	cfg.Teams = f.Teams
	cfg.Workers = f.Workers
	cfg.TrainWorkers = f.TrainWorkers
	cfg.TrainActors = f.TrainActors
	cfg.CheckpointPath = f.SavePolicy
	cfg.DecideTimeout = f.DecideDeadline
	cfg.Metrics = reg
	cfg.Logger = logger
	return cfg
}

// Build builds the scenario cfg describes and the system over it; ctx's
// obs tracer, if any, records both.
func (f *Flags) Build(ctx context.Context, cfg core.ScenarioConfig, reg *obs.Registry, logger *slog.Logger) (*core.Scenario, *core.System, error) {
	logger.Info("building scenario", slog.String("scale", f.Scale), slog.Int64("seed", f.Seed))
	sc, err := core.BuildScenarioContext(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystemContext(ctx, sc, f.systemConfig(reg, logger))
	if err != nil {
		return nil, nil, err
	}
	return sc, sys, nil
}

// Run is a command's open run: the snapshot it resumes from and its
// flight recorder.
type Run struct {
	// Resume is the snapshot the run continues from; nil for a fresh
	// run.
	Resume *snapshot.RunState
	logger *slog.Logger
	dir    string
	elog   *eventlog.Log
	path   string
}

// Open arms -snapshot-dir/-resume and -eventlog on sys for a run of
// method (the paper's method name, which keys the snapshots).
// identity is the scenario configuration the snapshots and the log
// manifest fingerprint. A resumed snapshot must belong to the same
// configuration, seed and method; one that says the run already
// finished is logged and reported as core.ErrRunComplete before the
// event log is touched.
func (f *Flags) Open(sys *core.System, identity core.ScenarioConfig, method string, reg *obs.Registry, logger *slog.Logger) (*Run, error) {
	r := &Run{logger: logger, dir: f.SnapshotDir, path: f.EventLog}
	d, err := f.durability(identity)
	if err != nil {
		return nil, err
	}
	if f.Resume {
		if r.Resume, err = f.latest(d.ConfigHash, method, logger); err != nil {
			return nil, err
		}
	}
	sys.SetDurability(d, r.Resume)
	if f.EventLog == "" {
		return r, nil
	}
	opts := eventlog.Options{Timing: f.EventLogTiming}
	if st := r.Resume; st != nil {
		// Truncate back to the snapshot's durability cursor; the resumed
		// run re-executes (and re-appends) everything after it.
		r.elog, err = eventlog.OpenAppend(f.EventLog, st.LogOffset, st.LogEvents, opts)
	} else {
		r.elog, err = eventlog.Create(f.EventLog, sys.BuildManifest(f.Scale, identity), opts)
	}
	if err != nil {
		return nil, err
	}
	r.elog.EnableMetrics(reg)
	sys.SetEventLog(r.elog)
	return r, nil
}

// durability is the snapshot wiring -snapshot-dir, -snapshot-every and
// -snapshot-keep describe, with SIGINT/SIGTERM armed as graceful stops;
// the zero Durability (off) without -snapshot-dir.
func (f *Flags) durability(identity core.ScenarioConfig) (core.Durability, error) {
	if f.SnapshotDir == "" {
		return core.Durability{}, nil
	}
	mgr, err := snapshot.NewManager(f.SnapshotDir, f.SnapshotKeep)
	if err != nil {
		return core.Durability{}, err
	}
	return core.Durability{
		Mgr:        mgr,
		Every:      f.SnapshotEvery,
		Stop:       snapshot.GracefulStop(os.Interrupt, syscall.SIGTERM),
		ConfigHash: core.ConfigHash(identity),
		Scale:      f.Scale,
	}, nil
}

// latest loads the newest valid snapshot in -snapshot-dir, or nil when
// there is none.
func (f *Flags) latest(configHash, method string, logger *slog.Logger) (*snapshot.RunState, error) {
	st, path, skipped, err := snapshot.Latest(f.SnapshotDir)
	for name, serr := range skipped {
		logger.Warn("skipping damaged snapshot", slog.String("file", name), slog.Any("err", serr))
	}
	switch {
	case errors.Is(err, snapshot.ErrNoSnapshot):
		logger.Info("no valid snapshot; starting fresh", slog.String("dir", f.SnapshotDir))
		return nil, nil
	case err != nil:
		return nil, err
	}
	if err := st.Validate(configHash, f.Seed, method); err != nil {
		return nil, err
	}
	if st.Phase == snapshot.PhaseDone {
		logger.Info("run already complete; nothing to resume", slog.String("dir", f.SnapshotDir))
		return nil, core.ErrRunComplete
	}
	logger.Info("resuming from snapshot", slog.String("path", path),
		slog.String("phase", st.Phase), slog.Int("window", st.Window),
		slog.Int("train_rounds", st.TrainRounds))
	return st, nil
}

// Close closes the flight recorder, if any, and logs its totals.
func (r *Run) Close() {
	if r.elog == nil {
		return
	}
	events, bytes, drops := r.elog.Stats()
	if err := r.elog.Close(); err != nil {
		r.logger.Warn("closing event log", slog.Any("err", err))
	}
	r.elog = nil
	r.logger.Info("event log written", slog.String("path", r.path),
		slog.Int64("events", events), slog.Int64("bytes", bytes), slog.Int64("drops", drops))
}

// Exit ends the command after a failed run step. A graceful stop (the
// final snapshot is installed and the log flushed) closes the event log
// and exits with snapshot.StopExitCode; any other error exits 1.
func (r *Run) Exit(err error) {
	if errors.Is(err, snapshot.ErrStopRequested) {
		r.logger.Info("graceful stop: final snapshot installed, event log flushed",
			slog.String("dir", r.dir), slog.Int("exit", snapshot.StopExitCode))
		r.Close()
		os.Exit(snapshot.StopExitCode)
	}
	r.logger.Error(err.Error())
	os.Exit(1)
}
