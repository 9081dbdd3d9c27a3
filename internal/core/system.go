package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mobirescue/internal/chaos"
	"mobirescue/internal/dispatch"
	"mobirescue/internal/ilp"
	"mobirescue/internal/nn"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/rl"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
	"mobirescue/internal/snapshot"
	"mobirescue/internal/svm"
	"mobirescue/internal/train"
	"mobirescue/internal/tsa"
)

// Exported core-level metric names (see README "Observability").
const (
	MetricTrainEpisodes      = "mobirescue_core_train_episodes_total"
	MetricEpisodeTimely      = "mobirescue_core_train_episode_timely_served"
	MetricEvaluationDays     = "mobirescue_core_evaluation_days_total"
	MetricSVMTrainingSeconds = "mobirescue_core_svm_training_seconds"
)

// SystemConfig tunes model training and the evaluation run.
type SystemConfig struct {
	// Seed drives training randomness and fleet placement.
	Seed int64
	// Teams is the fleet size; 0 sizes it at one team per four requests
	// on the evaluation episode's peak day, and at least 6 (EXPERIMENTS
	// "Fleet sizing").
	Teams int
	// TrainEpisodes is how many simulated training days the RL dispatcher
	// learns for.
	TrainEpisodes int
	// MR configures the MobiRescue dispatcher.
	MR dispatch.MRConfig
	// Sim configures the evaluation simulation (Start/Duration are set
	// per run).
	Sim sim.Config
	// IPLatency models the baselines' integer-programming solve time.
	IPLatency ilp.LatencyModel
	// Workers bounds the pipeline's parallelism: the routing layer's
	// tree prefetching inside every simulation, the concurrent method
	// runs of RunComparison and the trainer's rollouts. 0 means
	// GOMAXPROCS; 1 forces fully serial execution. Results and the
	// trained policy are byte-identical for any value — parallel units
	// are independent deterministic runs merged in a fixed order.
	Workers int
	// TrainActors is the logical actor count of the parallel actor–learner
	// trainer (TrainRLParallel): it fixes per-actor RNG streams and the
	// learner's merge order, so changing it changes the training run.
	// 0 means the default of 4.
	TrainActors int
	// Chaos, when enabled, injects the profile's faults into every
	// simulation run (flash-flood surges, vehicle breakdowns, sensing
	// and dispatcher faults — see internal/chaos) and wraps every
	// dispatcher in dispatch.Resilient. ChaosSeed derives all fault
	// schedules: the same (profile, seed) reproduces the same chaotic
	// run byte-for-byte.
	Chaos     chaos.Profile
	ChaosSeed int64
	// Metrics, when non-nil, wires observability through the whole stack:
	// SVM training/prediction counters, RL training telemetry, ILP solver
	// stats, and the simulator's per-method decision-latency histograms.
	// Nil — the default — disables all of it at ~zero cost.
	Metrics *obs.Registry
	// Logger, when non-nil, is handed to the simulator for structured
	// per-round and end-of-run records.
	Logger *slog.Logger
}

// DefaultSystemConfig returns the paper-matching defaults.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Seed:          1,
		TrainEpisodes: 12,
		MR:            dispatch.DefaultMRConfig(),
		Sim:           sim.DefaultConfig(time.Time{}),
		IPLatency:     ilp.PaperLatency(),
	}
}

// System is the assembled MobiRescue stack: scenario, trained SVM,
// prediction provider, and the RL dispatcher, plus the baselines needed
// for the comparison experiments.
type System struct {
	Config   SystemConfig
	Scenario *Scenario
	SVM      *svm.Model
	// TrainProvider predicts over the training episode (used during RL
	// training); EvalProvider predicts over the evaluation episode.
	TrainProvider *PredictProvider
	EvalProvider  *PredictProvider
	MR            *dispatch.MobiRescue
	Teams         int

	// baseCtx carries the obs tracer (if any) into runs started through
	// the ctx-less exported methods.
	baseCtx context.Context
	// basePredict is the un-noised SVM prediction closure; activePredict
	// is what MR actually calls — equal to basePredict until SetChaos
	// layers chaos.NoisyPredict on top.
	basePredict   dispatch.PredictFn
	activePredict dispatch.PredictFn
	// trainEpisodes / episodeTimely are the RL-training telemetry handles
	// (nil when Config.Metrics is nil).
	trainEpisodes *obs.Counter
	episodeTimely *obs.Gauge
	evalDays      *obs.Counter
	// trainedEpisodes counts the RL episodes the learner has absorbed
	// (training plus any loaded checkpoint), recorded in checkpoint
	// headers so warm-started runs stay cumulative.
	trainedEpisodes uint64
	// trainRewards is this run's training history (restored + new),
	// carried in every snapshot.
	trainRewards []float64
	// durable and resume make runs crash-safe (see SetDurability); the
	// zero Durability and a nil resume are plain runs.
	durable Durability
	resume  *snapshot.RunState
	// evlog is the optional flight recorder (see eventlog.go); nil off.
	evlog *eventlog.Log
}

// NewSystem trains the SVM on the training episode and wires up the RL
// dispatcher (untrained until TrainRLParallel runs).
func NewSystem(sc *Scenario, cfg SystemConfig) (*System, error) {
	return NewSystemContext(context.Background(), sc, cfg)
}

// NewSystemContext is NewSystem with tracing: ctx's obs tracer (if any)
// records the svm.train span here and is reused for every later run the
// system starts (RL training days, evaluation days).
func NewSystemContext(ctx context.Context, sc *Scenario, cfg SystemConfig) (*System, error) {
	if sc == nil {
		return nil, fmt.Errorf("core: scenario required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	svmStart := time.Now()
	_, svmSpan := obs.StartSpan(ctx, "svm.train")
	model, err := TrainSVM(sc.City, sc.Train, sc.Elev, cfg.Seed, cfg.Metrics)
	svmSpan.End()
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Histogram(MetricSVMTrainingSeconds,
			"Wall-clock SVM training time.", obs.DefSecondsBuckets).ObserveSince(svmStart)
		model.EnableMetrics(cfg.Metrics)
		ilp.EnableMetrics(cfg.Metrics)
	}
	trainProv, err := NewPredictProvider(sc.City, sc.Train, model, sc.Elev)
	if err != nil {
		return nil, err
	}
	evalProv, err := NewPredictProvider(sc.City, sc.Eval, model, sc.Elev)
	if err != nil {
		return nil, err
	}
	// The prediction fast path shares the system worker bound and the
	// observability registry (window latency, cache hit/miss/eviction
	// counters — see README "Prediction fast path").
	for _, prov := range []*PredictProvider{trainProv, evalProv} {
		prov.SetWorkers(cfg.Workers)
		prov.EnableMetrics(cfg.Metrics)
	}
	teams := cfg.Teams
	if teams <= 0 {
		// The paper's Figure 10 shows teams timely-serving several
		// requests each over the day, so the fleet is sized well below
		// the daily request count: one team per four evaluation-day
		// requests.
		teams = (len(RequestsForDay(sc.Eval, sc.Eval.PeakRequestDay())) + 3) / 4
		if teams < 6 {
			teams = 6
		}
	}
	mrCfg := cfg.MR
	mrCfg.Capacity = cfgCapacity(cfg.Sim)
	mrCfg.Agent.Seed = cfg.Seed
	// Thread the registry and logger into every simulation run.
	cfg.Sim.Metrics = cfg.Metrics
	if cfg.Sim.Logger == nil {
		cfg.Sim.Logger = cfg.Logger
	}
	// The provider is swapped between training and evaluation via the
	// active pointer below.
	sys := &System{
		Config:        cfg,
		Scenario:      sc,
		SVM:           model,
		TrainProvider: trainProv,
		EvalProvider:  evalProv,
		Teams:         teams,
		baseCtx:       ctx,
	}
	if cfg.Metrics != nil {
		sys.trainEpisodes = cfg.Metrics.Counter(MetricTrainEpisodes, "RL training episodes completed.")
		sys.episodeTimely = cfg.Metrics.Gauge(MetricEpisodeTimely, "Timely served requests in the last training episode.")
		sys.evalDays = cfg.Metrics.Counter(MetricEvaluationDays, "Evaluation-day simulations run.")
	}
	sys.basePredict = func(t time.Time) map[roadnet.SegmentID]float64 {
		return sys.activeProvider(t).Predict(t)
	}
	sys.activePredict = sys.basePredict
	mr, err := dispatch.NewMobiRescue(sc.City.NumRegions(), func(t time.Time) map[roadnet.SegmentID]float64 {
		return sys.activePredict(t)
	}, mrCfg)
	if err != nil {
		return nil, err
	}
	mr.EnableMetrics(cfg.Metrics)
	sys.MR = mr
	sys.installDemandSource()
	return sys, nil
}

// installDemandSource wires MR's region-sharded demand fast path: the
// per-region state vector comes from the provider's pre-aggregated
// totals, bit-identical to aggregating the predicted map. Chaos
// prediction noise perturbs the per-segment map after the provider, so
// with noise active the source is removed and MR falls back to
// aggregating what it actually sees.
func (s *System) installDemandSource() {
	if s.Config.Chaos.Enabled() && s.Config.Chaos.PredictNoise > 0 {
		s.MR.SetDemandSource(nil)
		return
	}
	s.MR.SetDemandSource(func(t time.Time) []float64 {
		return s.activeProvider(t).RegionTotals(t)
	})
}

func cfgCapacity(c sim.Config) int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return 5
}

// activeProvider routes prediction queries to the episode containing t.
func (s *System) activeProvider(t time.Time) *PredictProvider {
	if !t.Before(s.Scenario.Train.Data.Config.Start) {
		return s.TrainProvider
	}
	return s.EvalProvider
}

// RequestsForDay converts an episode's ground-truth rescues on a 0-based
// day into simulator requests.
func RequestsForDay(ep *Episode, day int) []sim.Request {
	cfg := ep.Data.Config
	var out []sim.Request
	for _, r := range ep.Data.Rescues {
		if cfg.DayIndex(r.RequestTime) != day {
			continue
		}
		out = append(out, sim.Request{
			ID:       sim.RequestID(len(out)),
			PersonID: r.PersonID,
			Seg:      r.Seg,
			AppearAt: r.RequestTime,
		})
	}
	return out
}

// VehicleStarts places n vehicles randomly among the city's hospitals
// (the paper initializes ambulances at hospitals).
func VehicleStarts(city *roadnet.City, n int, seed int64) ([]roadnet.Position, error) {
	if len(city.Hospitals) == 0 {
		return nil, fmt.Errorf("core: city has no hospitals")
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]roadnet.Position, 0, n)
	for i := 0; i < n; i++ {
		h := city.Hospitals[rng.Intn(len(city.Hospitals))]
		pos, err := city.Graph.AtLandmark(h)
		if err != nil {
			return nil, err
		}
		out = append(out, pos)
	}
	return out, nil
}

// simConfigForDay binds the system's sim settings to one episode day.
func (s *System) simConfigForDay(ep *Episode, day int) sim.Config {
	cfg := s.Config.Sim
	if cfg.Step <= 0 {
		metrics, logger := cfg.Metrics, cfg.Logger
		cfg = sim.DefaultConfig(time.Time{})
		cfg.Metrics, cfg.Logger = metrics, logger
	}
	cfg.Start = ep.Data.Config.Start.Add(time.Duration(day) * 24 * time.Hour)
	if cfg.Duration <= 0 {
		cfg.Duration = 24 * time.Hour
	}
	if cfg.Workers == 0 {
		cfg.Workers = s.Config.Workers
	}
	return cfg
}

// workers returns the effective parallelism bound (always >= 1).
func (s *System) workers() int {
	if s.Config.Workers > 0 {
		return s.Config.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// SetChaos (re)configures fault injection for every subsequent run:
// surge closures and vehicle breakdowns are scheduled per run from the
// seed, dispatcher faults wrap every dispatcher, prediction noise
// perturbs MR's demand estimate, and each run's dispatcher is hardened
// with dispatch.Resilient. Passing chaos.Off() restores benign runs.
func (s *System) SetChaos(p chaos.Profile, seed int64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	s.Config.Chaos = p
	s.Config.ChaosSeed = seed
	s.activePredict = chaos.NoisyPredict(p, seed, s.basePredict)
	s.installDemandSource()
	return nil
}

// dayOpts carries runDay's crash-safety options (see durable.go); the
// zero value is a plain run.
type dayOpts struct {
	// boundary, when non-nil, runs at every dispatch-window boundary
	// after the first window and before the last: the simulator is
	// stopped there, so it may capture its state or end the run with an
	// error.
	boundary func(*sim.Simulator) error
	// restore, when non-nil, rewinds the freshly built simulator (and
	// its dispatcher chain) to a mid-run sim.CaptureState blob before
	// running.
	restore []byte
	// skipSchedule suppresses the injector's up-front schedule events: a
	// restored recorder buffer already holds them, and re-emitting would
	// duplicate them in the resumed log.
	skipSchedule bool
	// quiet runs the simulator without the system's logger, whose "run
	// complete" line would read like the evaluation's.
	quiet bool
}

// runDay simulates one episode day under the given dispatcher. With a
// chaos profile configured, the day's fault schedules are derived from
// (profile, ChaosSeed, window) and the dispatcher is wrapped in the
// fault injector plus dispatch.Resilient.
// rec, when non-nil, receives the run's event stream: the simulator's
// window/order/pickup events, the injector's fault events, and the
// Resilient wrapper's fallback events all share the one per-run
// recorder, which the caller appends to the shared log in logical
// order.
func (s *System) runDay(ctx context.Context, ep *Episode, day int, disp sim.Dispatcher, rec *eventlog.Recorder, opts dayOpts) (*sim.Result, error) {
	ctx, daySpan := obs.StartSpan(ctx, "sim.day")
	defer daySpan.End()
	cfg := s.simConfigForDay(ep, day)
	cfg.Events = rec
	if opts.quiet {
		cfg.Logger = nil
	}
	var base sim.CostProvider = ep.Disaster(s.Scenario.City.Graph)
	if s.Config.Chaos.Enabled() {
		inj, err := chaos.NewInjector(s.Config.Chaos, s.Config.ChaosSeed,
			s.Scenario.City.Graph, cfg.Start, cfg.Duration, s.Teams)
		if err != nil {
			return nil, err
		}
		inj.EnableMetrics(s.Config.Metrics)
		inj.SetEvents(rec)
		if !opts.skipSchedule {
			inj.LogSchedule(rec)
		}
		// Surge closures layer under the rescue-crawl adapter so they
		// stay visible to flood-aware routing as "closed".
		base = inj.WrapCost(base)
		cfg.VehicleFaults = inj.VehicleFaults()
		resilient := dispatch.NewResilient(inj.WrapDispatcher(disp), dispatch.DefaultResilientConfig())
		resilient.EnableMetrics(s.Config.Metrics)
		resilient.SetEvents(rec)
		disp = resilient
	}
	simulator, err := s.newDaySim(ep, day, cfg, base, disp, s.Teams, s.Config.Seed)
	if err != nil {
		return nil, err
	}
	if opts.restore != nil {
		if err := simulator.RestoreState(opts.restore); err != nil {
			return nil, err
		}
	}
	// Without a boundary step the day runs in one Advance call.
	windows := 0
	if opts.boundary != nil {
		windows = 1
	}
	for {
		done, err := simulator.Advance(ctx, windows)
		if err != nil {
			return nil, err
		}
		if done {
			return simulator.Result(), nil
		}
		if err := opts.boundary(simulator); err != nil {
			return nil, err
		}
	}
}

// newDaySim builds the simulator for ep's day: the day's ground-truth
// requests, a fleet of teams placed by seed, and base's flood state
// behind the rescue-crawl adapter, dispatched by disp under cfg.
func (s *System) newDaySim(ep *Episode, day int, cfg sim.Config, base sim.CostProvider, disp sim.Dispatcher, teams int, seed int64) (*sim.Simulator, error) {
	starts, err := VehicleStarts(s.Scenario.City, teams, seed)
	if err != nil {
		return nil, err
	}
	costProv := sim.RescueCostProvider{Base: base, Crawl: cfg.CrawlFactor}
	return sim.New(s.Scenario.City, costProv, disp, RequestsForDay(ep, day), starts, cfg)
}

// ctx returns the context the system was built with (carrying the obs
// tracer, if any).
func (s *System) ctx() context.Context {
	if s.baseCtx != nil {
		return s.baseCtx
	}
	return context.Background()
}

// trainActors returns the logical actor count (>= 1, default 4). It must
// not depend on the machine: the actor count fixes seeds and merge
// order, so a hardware-derived default would make runs irreproducible
// across hosts.
func (s *System) trainActors() int {
	if s.Config.TrainActors > 0 {
		return s.Config.TrainActors
	}
	return 4
}

// TrainRLParallel trains the MobiRescue dispatcher with the
// internal/train actor–learner pipeline: TrainActors logical actors
// replay the training episode's peak day against frozen policy snapshots
// (at most Workers simulations at once) while the central DQN absorbs
// their trajectories in fixed actor-index order. The returned
// per-episode rewards (timely served requests, ordered by round then
// actor) and the learner's final state are byte-identical for any
// Workers value; see internal/train for the determinism contract.
//
// episodes <= 0 trains for Config.TrainEpisodes. SavePolicy writes the
// trained learner state afterwards. With SetDurability the rounds are
// snapshotted and a pending resume continues from its snapshot;
// episodes is then the total target including the resumed progress.
// A snapshot taken after training finished restores the trained
// learner (or, mid-evaluation, leaves it to the simulator's
// dispatcher-chain blob) and returns the recorded rewards without
// training.
func (s *System) TrainRLParallel(episodes int) ([]float64, error) {
	if st := s.resume; st != nil && st.Phase != snapshot.PhaseTrain {
		s.trainRewards = st.TrainRewards
		s.trainedEpisodes = st.TrainedEpisodes
		if st.Phase == snapshot.PhaseTrained {
			if len(st.LearnerState) > 0 {
				if _, err := s.MR.Agent().RestoreFullState(st.LearnerState); err != nil {
					return nil, err
				}
			}
			s.resume = nil
		}
		return s.trainRewards, nil
	}
	rewards, err := s.trainParallel(episodes)
	s.trainRewards = rewards
	if err != nil {
		return rewards, err
	}
	return rewards, s.installTrained()
}

// trainRollout builds the actor-rollout closure replaying the training
// episode's given day.
func (s *System) trainRollout(day int) train.Rollout {
	return func(ctx context.Context, round, actor int, policy *nn.Network, epsilon float64, seed int64) ([]rl.Transition, float64, error) {
		ap, err := rl.NewActor(policy, epsilon, seed)
		if err != nil {
			return nil, 0, err
		}
		disp := s.MR.ActorView(ap)
		epCtx, epSpan := obs.StartSpan(ctx, "rl.actor_episode")
		// Rollouts record and log nothing per run: concurrent training
		// sims would interleave nondeterministically. The trainer's own
		// train_round events carry the per-round telemetry instead.
		res, err := s.runDay(epCtx, s.Scenario.Train, day, disp, nil, dayOpts{quiet: true})
		epSpan.End()
		if err != nil {
			return nil, 0, err
		}
		disp.EndEpisode()
		return ap.Trajectory(), float64(res.TotalTimelyServed()), nil
	}
}

// SavePolicy writes the learner's full training state (networks,
// optimizer, counters, RNG cursor) to path as a versioned, checksummed,
// atomically installed checkpoint. The header records how many episodes
// the policy has been trained for.
func (s *System) SavePolicy(path string) error {
	return train.SaveCheckpointFile(path, s.MR.Agent(), s.trainedEpisodes)
}

// LoadPolicy warm-starts the dispatcher from a checkpoint written by
// SavePolicy, returning the episode count recorded in its header.
// Evaluation can then run the restored policy directly, and further
// training resumes exactly where the checkpoint left off.
func (s *System) LoadPolicy(path string) (uint64, error) {
	episodes, err := train.LoadCheckpointFile(path, s.MR.Agent())
	if err != nil {
		return 0, err
	}
	s.trainedEpisodes = episodes
	return episodes, nil
}

// TrainedEpisodes returns how many RL episodes the learner has absorbed
// (including any loaded checkpoint's recorded count).
func (s *System) TrainedEpisodes() uint64 { return s.trainedEpisodes }

// Comparison holds the three methods' results on the evaluation day.
type Comparison struct {
	Teams   int
	Results map[string]*sim.Result // keyed by method name
}

// MethodNames lists the methods in the paper's order.
var MethodNames = []string{"MobiRescue", "Rescue", "Schedule"}

// NewRescueBaseline builds the Rescue dispatcher seeded with the training
// episode's observed demand history, then re-anchored to the evaluation
// window so "previous days" resolve to the evaluation episode's earlier
// days.
func (s *System) NewRescueBaseline() (*dispatch.Rescue, error) {
	pred, err := tsa.New(3, 0.7)
	if err != nil {
		return nil, err
	}
	ep := s.Scenario.Eval
	cfg := ep.Data.Config
	// Seed with the evaluation episode's own earlier days (the method's
	// "historical distribution of rescue request appearances").
	for _, r := range ep.Data.Rescues {
		hour := int(r.RequestTime.Sub(cfg.Start) / time.Hour)
		pred.Observe(int(r.Seg), hour, 1)
	}
	return dispatch.NewRescue(pred, cfg.Start, s.Config.IPLatency), nil
}

// RunMethod runs a single dispatch method over the evaluation episode's
// peak request day. method is one of "mr" (or "mobirescue"), "rescue",
// or "schedule". For the MR case, episodes > 0 trains the RL dispatcher
// first with TrainRLParallel; episodes == 0 runs the policy as-is. With
// SetDurability the run is crash-safe: training and evaluation snapshot
// at their boundaries, a pending resume continues where its snapshot
// left off, and the finished run installs a terminal snapshot.
func (s *System) RunMethod(method string, episodes int) (*sim.Result, error) {
	name, err := MethodName(method)
	if err != nil {
		return nil, err
	}
	if st := s.resume; st != nil {
		if err := st.Validate(s.durable.ConfigHash, s.Config.Seed, name); err != nil {
			return nil, err
		}
		if st.Phase == snapshot.PhaseDone {
			return nil, ErrRunComplete
		}
	}
	var disp sim.Dispatcher
	switch name {
	case "MobiRescue":
		if episodes > 0 || s.resume != nil {
			if _, err := s.TrainRLParallel(episodes); err != nil {
				return nil, err
			}
		}
		s.MR.SetTraining(false)
		disp = s.MR
	case "Rescue":
		if disp, err = s.NewRescueBaseline(); err != nil {
			return nil, err
		}
	case "Schedule":
		disp = s.newSchedule()
	}
	res, err := s.runEvalDay(s.Scenario.Eval.PeakRequestDay(), disp)
	if err != nil {
		return nil, err
	}
	return res, s.InstallDone(name)
}

// runEvalDay runs one evaluation-day simulation under an eval.run span,
// recording into (and appending) its own flight-recorder stream. With
// durability on it snapshots at every due window, and a pending
// mid-evaluation resume continues from the snapshot's simulator state
// and recorder buffer. Only safe for serial callers — concurrent runs
// must use runEvalDayRec and append recorders in logical order
// themselves.
func (s *System) runEvalDay(day int, disp sim.Dispatcher) (*sim.Result, error) {
	rec := s.evlog.Recorder(disp.Name())
	var opts dayOpts
	if st := s.resume; st != nil && st.Phase == snapshot.PhaseEval {
		rec.RestoreState(st.EvalRecorder)
		opts.restore, opts.skipSchedule = st.SimState, true
		s.resume = nil
	}
	opts.boundary = s.evalBoundary(disp.Name(), rec)
	res, err := s.runEvalDayRec(day, disp, rec, opts)
	// On a graceful stop the append keeps the partial log inspectable;
	// the final snapshot's cursor predates it, so a resume truncates it
	// away and re-executes.
	s.evlog.Append(rec)
	if err != nil {
		if errors.Is(err, snapshot.ErrStopRequested) {
			s.evlog.Sync()
		}
		return nil, err
	}
	if s.durable.enabled() {
		if err := s.evlog.Sync(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runEvalDayRec is runEvalDay recording into a caller-owned recorder;
// the caller appends it to the log in logical order.
func (s *System) runEvalDayRec(day int, disp sim.Dispatcher, rec *eventlog.Recorder, opts dayOpts) (*sim.Result, error) {
	ctx, span := obs.StartSpan(s.ctx(), "eval.run."+disp.Name())
	defer span.End()
	s.evalDays.Inc()
	return s.runDay(ctx, s.Scenario.Eval, day, disp, rec, opts)
}

// newSchedule builds the Schedule baseline with the system's worker
// bound applied to its private free-flow router.
func (s *System) newSchedule() *dispatch.Schedule {
	sched := dispatch.NewSchedule(s.Scenario.City.Graph, s.Config.IPLatency)
	sched.SetWorkers(s.Config.Workers)
	return sched
}

// RunDispatcher runs an arbitrary dispatcher over the evaluation
// episode's peak request day — the hook ablation studies use to swap in
// modified baselines.
func (s *System) RunDispatcher(disp sim.Dispatcher) (*sim.Result, error) {
	return s.runEvalDay(s.Scenario.Eval.PeakRequestDay(), disp)
}

// RunComparison evaluates MobiRescue and both baselines on the
// evaluation episode's peak request day (the paper's Sep 16). The three
// method runs are independent deterministic simulations; with Workers
// != 1 they execute concurrently and are merged in a fixed order, so
// the comparison is byte-identical to a serial run.
func (s *System) RunComparison() (*Comparison, error) {
	day := s.Scenario.Eval.PeakRequestDay()
	cmp := &Comparison{Teams: s.Teams, Results: make(map[string]*sim.Result)}

	s.MR.SetTraining(false)
	rescue, err := s.NewRescueBaseline()
	if err != nil {
		return nil, err
	}
	runs := []struct {
		name string
		disp sim.Dispatcher
	}{
		{"MobiRescue", s.MR},
		{"Rescue", rescue},
		{"Schedule", s.newSchedule()},
	}
	results := make([]*sim.Result, len(runs))
	errs := make([]error, len(runs))
	recs := make([]*eventlog.Recorder, len(runs))
	for i := range runs {
		recs[i] = s.evlog.Recorder(runs[i].name)
	}
	if s.workers() <= 1 {
		for i := range runs {
			results[i], errs[i] = s.runEvalDayRec(day, runs[i].disp, recs[i], dayOpts{})
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(runs))
		for i := range runs {
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = s.runEvalDayRec(day, runs[i].disp, recs[i], dayOpts{})
			}(i)
		}
		wg.Wait()
	}
	// Method order (the runs slice), never completion order.
	for _, rec := range recs {
		s.evlog.Append(rec)
	}
	for i, r := range runs {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: %s run: %w", r.name, errs[i])
		}
		cmp.Results[r.name] = results[i]
	}
	return cmp, nil
}
