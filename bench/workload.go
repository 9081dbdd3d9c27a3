package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/dispatch"
	"mobirescue/internal/mobility"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/serve"
	"mobirescue/internal/sim"
)

// Workload sizing. Every workload is a closed loop: one driver goroutine
// advances one dispatch window (or one training round) at a time, and
// simulated time, not wall time, releases requests. The sizes keep one
// run — three set-ups plus the measured phase — near 20 s on two cores.
const (
	// metroPeople is the streamed population metro-10k predicts over.
	metroPeople = 10_000
	// metroSpan is the part of the evaluation peak day metro-10k
	// dispatches: 06:00 to 16:00, 120 windows.
	metroFrom, metroSpan = 6 * time.Hour, 10 * time.Hour
	// trainActors is the episodes of one train-small round, one per
	// logical actor (the trainer's default).
	trainActors = 4
	// Under -smoke: the metro population and the episodes per round.
	smokePeople, smokeActors = 2_000, 2
	// minMethodWindows is the fewest windows each dispatch method must
	// contribute before the measured phase may end, so every p90 has
	// ten samples beyond it.
	minMethodWindows = 100
)

// workload is one named input the benchmark runs.
type workload struct {
	name  string
	scale string
	// prepare adds the workload's own parts to a freshly built system.
	prepare func(e *env) error
	// jobs returns the simulators one pass drives, in order. With a nil
	// tracer the MobiRescue and baseline simulators come from the shipped
	// session entry point; a tracer assembles the same simulators from
	// their public parts so it can time each Decide.
	jobs func(e *env, tr *tracer) ([]*job, error)
	// train runs one TrainRLParallel round at the start of every pass.
	train bool
}

var workloads = []*workload{
	{name: "mr-mid", scale: "mid", prepare: prepareLog, jobs: mrJobs},
	{name: "baselines-mid", scale: "mid", jobs: baselineJobs},
	{name: "metro-10k", scale: "mid", prepare: prepareMetro, jobs: metroJobs},
	{name: "train-small", scale: "small", prepare: prepareTrain, jobs: trainJobs, train: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// options are the command-line settings every workload shares.
type options struct {
	seed    int64
	seconds time.Duration
	smoke   bool
}

// env is one workload set up and ready to measure.
type env struct {
	w     *workload
	o     options
	cfg   core.ScenarioConfig
	sc    *core.Scenario
	sys   *core.System
	reg   *obs.Registry // nil on untraced runs
	world *core.SessionWorld
	// policy is the MR policy the pass's MobiRescue dispatchers serve,
	// frozen like SessionWorld freezes it.
	policy []byte
	// metro-10k: the streamed-population predictor.
	prov *core.PredictProvider
	// train-small: the learner state every pass starts training from.
	learner0 []byte
	// mr-mid: where the flight recorder writes.
	dir string

	buildTime time.Duration // BuildScenario alone
}

// scenarioConfig is the workload's disaster scenario: the repository's
// seed-1 world at the workload's scale. The scenario is the fixed input
// every seed dispatches; the seed drives the system (SVM sampling, fleet
// placement, policy initialisation, exploration), so the work a pass
// does stays the same size across seeds.
func (w *workload) scenarioConfig(o options) (core.ScenarioConfig, error) {
	if o.smoke {
		return core.SmallScenarioConfig(), nil
	}
	return core.ScenarioConfigForScale(w.scale)
}

// setup builds the workload's world from its seed: scenario, SVM,
// system, and the workload's own parts. reg, when non-nil, is wired
// through the whole stack for a traced run.
func setup(w *workload, o options, reg *obs.Registry) (*env, error) {
	cfg, err := w.scenarioConfig(o)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sc, err := core.BuildScenario(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, o: o, cfg: cfg, sc: sc, reg: reg, buildTime: time.Since(start)}
	scfg := core.DefaultSystemConfig()
	scfg.Seed = o.seed
	scfg.Metrics = reg
	scfg.TrainActors = trainActors
	if o.smoke {
		scfg.Sim.Duration = time.Hour
		scfg.TrainActors = smokeActors
	}
	if e.sys, err = core.NewSystem(sc, scfg); err != nil {
		return nil, err
	}
	if err := e.freezePolicy(); err != nil {
		return nil, err
	}
	if w.prepare != nil {
		if err := w.prepare(e); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// freezePolicy snapshots the system's current MR policy for the pass's
// MobiRescue dispatchers.
func (e *env) freezePolicy() error {
	var buf bytes.Buffer
	if err := e.sys.MR.SavePolicy(&buf); err != nil {
		return err
	}
	e.policy = buf.Bytes()
	world, err := core.NewSessionWorld(e.sys)
	e.world = world
	return err
}

func (e *env) close() {
	if e != nil && e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

func prepareLog(e *env) error {
	dir, err := os.MkdirTemp("", "mobibench-")
	e.dir = dir
	return err
}

func prepareMetro(e *env) error {
	mcfg := e.sc.Eval.Data.Config
	mcfg.NumPeople = metroPeople
	if e.o.smoke {
		mcfg.NumPeople = smokePeople
	}
	st, err := mobility.NewStreamer(e.sc.City, mcfg)
	if err != nil {
		return err
	}
	prov, err := core.NewPredictProviderFromSource(e.sc.City, st, e.sys.SVM, e.sc.Eval.Storm, e.sc.Elev, 0)
	if err != nil {
		return err
	}
	prov.EnableMetrics(e.reg)
	e.prov = prov
	return nil
}

func prepareTrain(e *env) error {
	st, err := e.sys.MR.Agent().CaptureFullState(0)
	e.learner0 = st
	return err
}

// job is one simulator a pass drives window by window.
type job struct {
	method string // dispatcher name, as the simulator reports it
	sim    *sim.Simulator
	n      int // requests it was built with
	teams  int
	// The flight recorder, when on: rec is appended to log after every
	// window, and the log is closed when the run ends.
	log  *eventlog.Log
	rec  *eventlog.Recorder
	path string
}

// mrJobs: MobiRescue on the evaluation peak day with the flight
// recorder on.
func mrJobs(e *env, tr *tracer) ([]*job, error) {
	j, err := e.evalJob(tr, "mr", e.sc.Eval.PeakRequestDay(), true)
	return []*job{j}, err
}

// baselineJobs: Rescue, then Schedule, over the day before the
// evaluation peak day and the peak day itself.
func baselineJobs(e *env, tr *tracer) ([]*job, error) {
	peak := e.sc.Eval.PeakRequestDay()
	if peak < 2 {
		// Sessions read day 0 as "the peak day".
		return nil, fmt.Errorf("peak day %d has no evaluation day before it", peak)
	}
	var jobs []*job
	for _, method := range []string{"rescue", "schedule"} {
		for _, day := range []int{peak - 1, peak} {
			j, err := e.evalJob(tr, method, day, false)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// metroJobs: MobiRescue fed by the streamed population, over the
// metroSpan of the peak day, with the peak-day requests of that span.
func metroJobs(e *env, tr *tracer) ([]*job, error) {
	e.prov.ResetCache()
	ep := e.sc.Eval
	peak := ep.PeakRequestDay()
	from := ep.Data.Config.Start.Add(time.Duration(peak)*24*time.Hour + metroFrom)
	span := metroSpan
	if e.o.smoke {
		span = e.sys.Config.Sim.Duration
	}
	var reqs []sim.Request
	for _, r := range core.RequestsForDay(ep, peak) {
		if !r.AppearAt.Before(from) && r.AppearAt.Before(from.Add(span)) {
			r.ID = sim.RequestID(len(reqs))
			reqs = append(reqs, r)
		}
	}
	mr, err := e.newMR(e.prov.Predict, e.prov.RegionTotals)
	if err != nil {
		return nil, err
	}
	j, err := e.assemble(tr, ep, from, span, mr, reqs, nil)
	return []*job{j}, err
}

// trainJobs: the policy the pass's training round produced, dispatching
// the evaluation peak day.
func trainJobs(e *env, tr *tracer) ([]*job, error) {
	j, err := e.evalJob(tr, "mr", e.sc.Eval.PeakRequestDay(), false)
	return []*job{j}, err
}

// evalJob builds one evaluation-episode simulator for a session method.
func (e *env) evalJob(tr *tracer, method string, day int, logged bool) (*job, error) {
	if method == "mr" {
		// Every pass predicts afresh, as a fresh run would.
		e.sys.EvalProvider.ResetCache()
	}
	var l *eventlog.Log
	var rec *eventlog.Recorder
	var path string
	if logged {
		path = filepath.Join(e.dir, "events.jsonl")
		var err error
		if l, err = eventlog.Create(path, e.sys.BuildManifest(e.w.scale, e.cfg), eventlog.Options{}); err != nil {
			return nil, err
		}
		l.EnableMetrics(e.reg)
		rec = l.Recorder(method)
	}
	var j *job
	var err error
	if tr == nil {
		var s *sim.Simulator
		var n int
		if s, n, err = e.world.NewSessionSim(serve.SessionSpec{Method: method, Day: day}, rec); err == nil {
			j = &job{sim: s, n: n, teams: e.sys.Teams}
		}
	} else {
		var disp sim.Dispatcher
		if disp, err = e.newDispatcher(method); err == nil {
			ep := e.sc.Eval
			dayStart := ep.Data.Config.Start.Add(time.Duration(day) * 24 * time.Hour)
			j, err = e.assemble(tr, ep, dayStart, e.sys.Config.Sim.Duration, disp, core.RequestsForDay(ep, day), rec)
		}
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	j.method = methodNames[method]
	j.log, j.rec, j.path = l, rec, path
	return j, nil
}

// methodNames maps session method names to the dispatcher names the
// simulator and its metrics report.
var methodNames = map[string]string{"mr": "MobiRescue", "rescue": "Rescue", "schedule": "Schedule"}

// newDispatcher builds the dispatcher a session of method would get.
func (e *env) newDispatcher(method string) (sim.Dispatcher, error) {
	switch method {
	case "mr":
		return e.newMR(e.sys.EvalProvider.Predict, e.sys.EvalProvider.RegionTotals)
	case "rescue":
		return e.sys.NewRescueBaseline()
	case "schedule":
		s := dispatch.NewSchedule(e.sc.City.Graph, e.sys.Config.IPLatency)
		s.SetWorkers(e.sys.Config.Workers)
		return s, nil
	}
	return nil, fmt.Errorf("unknown method %q", method)
}

// newMR builds an inference-only MobiRescue dispatcher serving the
// frozen policy over the given prediction source.
func (e *env) newMR(predict dispatch.PredictFn, demand dispatch.DemandFn) (*dispatch.MobiRescue, error) {
	cfg := e.sys.Config.MR
	cfg.Capacity = e.sys.Config.Sim.Capacity
	cfg.Agent.Seed = e.sys.Config.Seed
	mr, err := dispatch.NewMobiRescue(e.sc.City.NumRegions(), predict, cfg)
	if err != nil {
		return nil, err
	}
	if err := mr.LoadPolicy(bytes.NewReader(e.policy)); err != nil {
		return nil, err
	}
	mr.SetTraining(false)
	mr.SetDemandSource(demand)
	return mr, nil
}

// assemble builds a simulator the way a session does — the episode's
// flood as rescue cost, the system's fleet, serial routing — over
// [start, start+span). A non-nil tracer wraps the dispatcher so each
// Decide is timed.
func (e *env) assemble(tr *tracer, ep *core.Episode, start time.Time, span time.Duration, disp sim.Dispatcher, reqs []sim.Request, rec *eventlog.Recorder) (*job, error) {
	cfg := e.sys.Config.Sim
	cfg.Start, cfg.Duration = start, span
	cfg.Workers = 1
	cfg.Metrics = e.reg
	cfg.Events = rec
	starts, err := core.VehicleStarts(e.sc.City, e.sys.Teams, e.sys.Config.Seed)
	if err != nil {
		return nil, err
	}
	cost := sim.RescueCostProvider{Base: ep.Disaster(e.sc.City.Graph), Crawl: cfg.CrawlFactor}
	name := disp.Name()
	if tr != nil {
		disp = tracedDispatcher{Dispatcher: disp, t: tr}
	}
	s, err := sim.New(e.sc.City, cost, disp, reqs, starts, cfg)
	if err != nil {
		return nil, err
	}
	return &job{method: name, sim: s, n: len(reqs), teams: e.sys.Teams}, nil
}

// phase is one measured phase: passes of the workload's closed loop
// repeated until the time is up. Every pass does the same work.
type phase struct {
	passS   []float64 // wall seconds of every pass
	windows []float64 // wall ms of every window driven
	// passEnds[i] is where pass i's windows end in windows.
	passEnds []int
	// perMethod counts windows by dispatcher name.
	perMethod map[string]int
	episodes  int // training episodes
	// rolloutWindows counts the windows the training rollouts simulated.
	rolloutWindows int
	// first is the first pass's outcome; every later pass must equal it.
	first passOutcome
	// lastLog is the last flight-recorded run, checked after the phase.
	lastLog struct {
		path    string
		res     *sim.Result
		windows int
	}
	failures []string
}

// passOutcome is what one pass produced: per-request outcomes of every
// simulator run, and the training round's episode rewards.
type passOutcome struct {
	results []*sim.Result
	rewards []float64
}

// measure runs passes until both the time is up and every dispatch
// method has contributed minMethodWindows windows.
func measure(e *env, tr *tracer) (*phase, error) {
	ph := &phase{perMethod: make(map[string]int)}
	runtime.GC()
	start := time.Now()
	for {
		passStart := time.Now()
		out, err := e.pass(tr, ph)
		if err != nil {
			return nil, err
		}
		ph.passS = append(ph.passS, time.Since(passStart).Seconds())
		ph.passEnds = append(ph.passEnds, len(ph.windows))
		if len(ph.passS) == 1 {
			ph.first = out
		} else if diff := diffOutcomes(ph.first, out); diff != "" {
			ph.failures = append(ph.failures, fmt.Sprintf("pass %d differs from pass 0: %s", len(ph.passS)-1, diff))
		}
		if time.Since(start) >= e.o.seconds && enoughWindows(ph) {
			return ph, nil
		}
	}
}

// passMedian applies stat to each pass's windows and returns the median
// over passes, so a pass slowed by another tenant of the host moves the
// result less than it moves a statistic of all windows pooled. When a
// pass has too few windows for stat (short -smoke days), stat covers
// all windows instead.
func (ph *phase) passMedian(stat func([]float64) (float64, error)) (float64, error) {
	var vals []float64
	start := 0
	for _, end := range ph.passEnds {
		v, err := stat(ph.windows[start:end])
		if err != nil {
			return stat(ph.windows)
		}
		vals = append(vals, v)
		start = end
	}
	return median(vals), nil
}

// windowsPerSecond is the dispatch windows one pass simulates, training
// rollouts included, over the median pass time.
func (ph *phase) windowsPerSecond() float64 {
	perPass := float64(len(ph.windows)+ph.rolloutWindows) / float64(len(ph.passS))
	return perPass / median(ph.passS)
}

func enoughWindows(ph *phase) bool {
	for _, n := range ph.perMethod {
		if n < minMethodWindows {
			return false
		}
	}
	return true
}

// pass runs the workload's closed loop once: the training round, if
// any, then every simulator window by window.
func (e *env) pass(tr *tracer, ph *phase) (passOutcome, error) {
	var out passOutcome
	if e.w.train {
		rewards, err := e.trainRound(tr)
		if err != nil {
			return out, err
		}
		if want := e.sys.Config.TrainActors; len(rewards) != want {
			ph.failures = append(ph.failures, fmt.Sprintf("training returned %d rewards for %d episodes", len(rewards), want))
		}
		out.rewards = rewards
		ph.episodes += len(rewards)
		ph.rolloutWindows += len(rewards) * int(e.sys.Config.Sim.Duration/e.sys.Config.Sim.Period)
	}
	jobs, err := e.w.jobs(e, tr)
	if err != nil {
		return out, err
	}
	for _, j := range jobs {
		res, err := drive(j, tr, ph)
		if err != nil {
			return out, fmt.Errorf("%s: %w", j.method, err)
		}
		out.results = append(out.results, res)
	}
	return out, nil
}

// trainRound trains one round from the learner state the workload
// started with, so every pass does the same work, then freezes the
// trained policy for the pass's evaluation.
func (e *env) trainRound(tr *tracer) ([]float64, error) {
	if _, err := e.sys.MR.Agent().RestoreFullState(e.learner0); err != nil {
		return nil, err
	}
	e.sys.TrainProvider.ResetCache()
	var before reading
	if tr != nil {
		before = tr.read()
	}
	start := time.Now()
	rewards, err := e.sys.TrainRLParallel(e.sys.Config.TrainActors)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.round(time.Since(start), tr.read().sub(before))
	}
	return rewards, e.freezePolicy()
}

// drive advances one simulator a window at a time, timing each window,
// and checks the finished run.
func drive(j *job, tr *tracer, ph *phase) (*sim.Result, error) {
	ctx := context.Background()
	windows := 0
	for done := false; !done; {
		if tr != nil {
			tr.windowStart()
		}
		start := time.Now()
		var err error
		if done, err = j.sim.Advance(ctx, 1); err != nil {
			return nil, err
		}
		var logTime time.Duration
		if j.log != nil {
			t := time.Now()
			j.log.Append(j.rec)
			logTime = time.Since(t)
		}
		d := time.Since(start)
		if tr != nil {
			tr.windowEnd(j.method, d, logTime)
		}
		ph.windows = append(ph.windows, ms(d))
		windows++
	}
	ph.perMethod[j.method] += windows
	if j.log != nil {
		events, bytes, _ := j.log.Stats()
		if err := j.log.Close(); err != nil {
			return nil, err
		}
		if tr != nil {
			tr.logged(events, bytes)
		}
	}
	res := j.sim.Result()
	if err := checkRun(j, res, windows); err != nil {
		ph.failures = append(ph.failures, fmt.Sprintf("%s: %v", j.method, err))
	}
	if j.log != nil {
		ph.lastLog.path, ph.lastLog.res, ph.lastLog.windows = j.path, res, windows
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
