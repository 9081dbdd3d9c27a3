package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/sim"
	"mobirescue/internal/snapshot"
	"mobirescue/internal/train"
)

// Crash-safe runs: with SetDurability, TrainRLParallel and RunMethod
// install a window-boundary snapshot (internal/snapshot) after every
// training round / dispatch window, so a killed process resumes from
// the latest valid snapshot and finishes with a byte-identical event
// log. Without it the same code runs with every snapshot step off.
//
// The resume contract requires the resuming invocation to use the same
// flags as the original: the snapshot validates config hash, seed, and
// method, but the training-episode target and snapshot cadence are
// trusted to match (crashtest re-invokes with identical arguments).

// ErrRunComplete reports a resume whose latest snapshot says the run
// already finished — there is nothing left to execute.
var ErrRunComplete = errors.New("core: run already complete")

// Durability wires snapshotting into a run. The zero value disables it.
type Durability struct {
	// Mgr installs snapshots; nil disables durability entirely.
	Mgr *snapshot.Manager
	// Every is the snapshot cadence in dispatch windows / training
	// rounds; <= 0 means every boundary.
	Every int
	// Stop, when non-nil and set (by snapshot.GracefulStop), makes the
	// run finish its current window, install a final snapshot, flush the
	// event log, and return snapshot.ErrStopRequested.
	Stop *atomic.Bool
	// ConfigHash and Scale identify the experiment in each snapshot
	// (ConfigHash(cfg) and the scale name, matching the log manifest).
	ConfigHash string
	Scale      string
}

func (d Durability) enabled() bool { return d.Mgr != nil }

func (d Durability) every() int {
	if d.Every > 0 {
		return d.Every
	}
	return 1
}

func (d Durability) stopRequested() bool { return d.Stop != nil && d.Stop.Load() }

// due reports whether boundary n (1-based count of completed units) is
// a snapshot point.
func (d Durability) due(n int) bool { return n > 0 && n%d.every() == 0 }

// SetDurability makes every later TrainRLParallel and RunMethod
// crash-safe: d installs a snapshot at every d.Every-th training round
// and dispatch window, and st, when non-nil, is a snapshot from a
// previous invocation (snapshot.Latest) that the run continues from
// instead of starting over. The zero Durability with a nil st restores
// plain runs.
//
// On a graceful stop those methods return snapshot.ErrStopRequested; a
// resume of an already-finished run makes RunMethod return
// ErrRunComplete.
func (s *System) SetDurability(d Durability, st *snapshot.RunState) {
	s.durable, s.resume = d, st
}

// MethodName canonicalizes a method flag value ("mr", "rescue", ...)
// to the paper's method name.
func MethodName(method string) (string, error) {
	switch method {
	case "mr", "mobirescue", "MobiRescue":
		return "MobiRescue", nil
	case "rescue", "Rescue":
		return "Rescue", nil
	case "schedule", "Schedule":
		return "Schedule", nil
	}
	return "", fmt.Errorf("core: unknown method %q (want mr, rescue, or schedule)", method)
}

// install stamps ns with the run's identity fields and event-log
// cursor and installs it.
func (s *System) install(ns snapshot.RunState, method string) error {
	ns.ConfigHash = s.durable.ConfigHash
	ns.Seed = s.Config.Seed
	ns.Method = method
	ns.Scale = s.durable.Scale
	ns.LogOffset = s.evlog.Offset()
	ns.LogEvents = s.evlog.Events()
	_, err := s.durable.Mgr.Install(&ns)
	return err
}

// installStop is install at a boundary the run may stop at: it returns
// snapshot.ErrStopRequested when a graceful stop is pending.
func (s *System) installStop(ns snapshot.RunState, method string) error {
	if err := s.install(ns, method); err != nil {
		return err
	}
	if s.durable.stopRequested() {
		return snapshot.ErrStopRequested
	}
	return nil
}

// installTrained installs the PhaseTrained snapshot capturing the
// trained learner and the event-log cursor. No-op when durability is
// off.
func (s *System) installTrained() error {
	if !s.durable.enabled() {
		return nil
	}
	full, err := s.MR.Agent().CaptureFullState(s.trainedEpisodes)
	if err != nil {
		return err
	}
	return s.installStop(snapshot.RunState{
		Phase:           snapshot.PhaseTrained,
		TrainEpisodes:   s.trainedEpisodes,
		TrainedEpisodes: s.trainedEpisodes,
		TrainRewards:    s.trainRewards,
		LearnerState:    full,
	}, "MobiRescue")
}

// InstallDone syncs the event log and installs the terminal PhaseDone
// snapshot of a run of method: a later resume of the snapshot directory
// reports the run complete instead of re-executing it. RunMethod calls
// it itself; callers that drive training and evaluation as separate
// phases (cmd/experiments) call it once they finish. No-op when
// durability is off.
func (s *System) InstallDone(method string) error {
	if !s.durable.enabled() {
		return nil
	}
	if err := s.evlog.Sync(); err != nil {
		return err
	}
	return s.install(snapshot.RunState{
		Phase:           snapshot.PhaseDone,
		TrainRewards:    s.trainRewards,
		TrainedEpisodes: s.trainedEpisodes,
	}, method)
}

// evalBoundary returns the window-boundary step that snapshots the
// evaluation run of method at every due window (and at a pending
// graceful stop), or nil when durability is off.
func (s *System) evalBoundary(method string, rec *eventlog.Recorder) func(*sim.Simulator) error {
	if !s.durable.enabled() {
		return nil
	}
	return func(simr *sim.Simulator) error {
		window := simr.Progress().Window
		if !s.durable.stopRequested() && !s.durable.due(window) {
			return nil
		}
		blob, err := simr.CaptureState()
		if err != nil {
			return err
		}
		return s.installStop(snapshot.RunState{
			Phase:           snapshot.PhaseEval,
			TrainRewards:    s.trainRewards,
			TrainedEpisodes: s.trainedEpisodes,
			Window:          window,
			SimState:        blob,
			EvalRecorder:    rec.CaptureState(),
		}, method)
	}
}

// trainParallel runs the actor–learner rounds behind TrainRLParallel:
// resumed from a PhaseTrain snapshot when one is pending, and
// installing one per due round when durability is on.
func (s *System) trainParallel(episodes int) ([]float64, error) {
	if episodes <= 0 {
		episodes = s.Config.TrainEpisodes
	}
	ctx, trainSpan := obs.StartSpan(s.ctx(), "rl.train_parallel")
	defer trainSpan.End()
	day := s.Scenario.Train.PeakRequestDay()
	rollout := s.trainRollout(day)
	trainRec := s.evlog.Recorder("train")
	var prev []float64
	startRound := 0
	if st := s.resume; st != nil { // PhaseTrain; TrainRLParallel handles the rest
		if len(st.LearnerState) > 0 {
			eps, err := s.MR.Agent().RestoreFullState(st.LearnerState)
			if err != nil {
				return nil, err
			}
			s.trainedEpisodes = eps
		}
		trainRec.RestoreState(st.TrainRecorder)
		prev, startRound = st.TrainRewards, st.TrainRounds
		s.resume = nil
	}
	remaining := episodes - len(prev)
	if remaining <= 0 {
		// The snapshot already holds the whole training run (killed after
		// the final round's snapshot, before the log append).
		s.evlog.Append(trainRec)
		return prev, nil
	}
	baseEp := s.trainedEpisodes
	cfgT := train.Config{
		Actors:     s.trainActors(),
		Episodes:   remaining,
		Workers:    s.Config.Workers,
		Seed:       s.Config.Seed,
		Metrics:    s.Config.Metrics,
		Events:     trainRec,
		StartRound: startRound,
	}
	if s.durable.enabled() {
		cfgT.RoundHook = func(round int, stats *train.Stats) error {
			if !s.durable.stopRequested() && !s.durable.due(round+1) {
				return nil
			}
			full, err := s.MR.Agent().CaptureFullState(baseEp + uint64(stats.Episodes))
			if err != nil {
				return err
			}
			return s.installStop(snapshot.RunState{
				Phase:         snapshot.PhaseTrain,
				TrainRounds:   round + 1,
				TrainEpisodes: baseEp + uint64(stats.Episodes),
				TrainRewards:  append(append([]float64(nil), prev...), stats.Rewards...),
				LearnerState:  full,
				TrainRecorder: trainRec.CaptureState(),
			}, "MobiRescue")
		}
	}
	trainer, err := train.New(s.MR.Agent(), rollout, baseEp, cfgT)
	if err != nil {
		return nil, err
	}
	stats, runErr := trainer.Run(ctx)
	s.evlog.Append(trainRec)
	s.trainedEpisodes = trainer.Episodes()
	for _, r := range stats.Rewards {
		s.trainEpisodes.Inc()
		s.episodeTimely.Set(r)
	}
	rewards := append(append([]float64(nil), prev...), stats.Rewards...)
	if runErr != nil {
		if errors.Is(runErr, snapshot.ErrStopRequested) {
			s.evlog.Sync()
			return rewards, runErr
		}
		return rewards, fmt.Errorf("core: parallel training: %w", runErr)
	}
	return rewards, nil
}
