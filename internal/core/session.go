package core

import (
	"fmt"
	"strings"

	"mobirescue/internal/dispatch"
	"mobirescue/internal/nn"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/rl"
	"mobirescue/internal/serve"
	"mobirescue/internal/sim"
)

// SessionWorld adapts a built System to the serving layer: it is the
// serve.World that constructs one fresh, session-owned simulator (and
// dispatcher chain) per scenario session. The heavy shared state — the
// scenario, the trained SVM, the prediction provider (concurrent-safe
// and deterministic), the frozen MR policy network — is read-only at
// serving time; everything mutable (the simulator, the dispatcher's
// per-run assignment state, the Rescue baseline's online demand
// history) is built per session, so thousands of sessions advance
// concurrently without sharing a single mutable word.
//
// An "mr" session is a view of the system's MR dispatcher (see
// dispatch.MobiRescue.ActorView): it shares the system's prediction and
// demand sources, so its prediction follows SetChaos, which nothing
// that serves sessions calls.
//
// Construction is deterministic: the same spec always yields an
// identical simulator, which is what lets a drained server rebuild a
// session and restore its snapshot byte-identically.
type SessionWorld struct {
	sys *System
	// policy is the MR dispatcher's policy network, frozen at world
	// construction: every "mr" session reads this one network even if
	// the system's learner trains on afterwards.
	policy *nn.Network
}

// SessionMethods lists the dispatch methods a session can request.
var SessionMethods = []string{"greedy", "mr", "rescue", "schedule"}

// NewSessionWorld freezes sys's current MR policy and returns the
// serving bridge. Sessions serve inference only — training stays on the
// batch path.
func NewSessionWorld(sys *System) (*SessionWorld, error) {
	if sys == nil {
		return nil, fmt.Errorf("core: system required")
	}
	return &SessionWorld{sys: sys, policy: sys.MR.Agent().SnapshotPolicy()}, nil
}

// sessionDispatcher builds the session-owned dispatcher chain for a
// method name. Every dispatcher here is freshly constructed — sessions
// never share mutable dispatcher state.
func (w *SessionWorld) sessionDispatcher(method string) (sim.Dispatcher, error) {
	sys := w.sys
	switch strings.ToLower(method) {
	case "greedy":
		return dispatch.NewGreedy(), nil
	case "schedule":
		return sys.newSchedule(), nil
	case "rescue":
		return sys.NewRescueBaseline()
	case "mr", "mobirescue":
		// With training off the view decides greedily and never draws
		// from the actor's exploration stream.
		actor, err := rl.NewActor(w.policy, 0, sys.Config.Seed)
		if err != nil {
			return nil, err
		}
		mr := sys.MR.ActorView(actor)
		mr.SetTraining(false)
		return mr, nil
	default:
		return nil, fmt.Errorf("core: unknown session method %q (want %s)", method, strings.Join(SessionMethods, ", "))
	}
}

// NewSessionSim implements serve.World: a fresh simulator over the
// evaluation episode's requested day, with a session-owned dispatcher
// chain and cost provider. rec (which may be nil) receives the run's
// event stream. A requested fleet larger than the episode's population
// is rejected: the spec comes from the network, and the fleet is
// allocated and stepped every window.
func (w *SessionWorld) NewSessionSim(spec serve.SessionSpec, rec *eventlog.Recorder) (*sim.Simulator, int, error) {
	sys := w.sys
	ep := sys.Scenario.Eval
	// An omitted day serves the episode's peak-request day — the same
	// day the batch comparisons run. (Day 0 is the quiet pre-disaster
	// day; nobody dispatches there.)
	day := spec.Day
	if day == 0 {
		day = ep.PeakRequestDay()
	}
	if day < 0 || day >= ep.Data.Config.Days {
		return nil, 0, fmt.Errorf("core: day %d out of range [0,%d)", day, ep.Data.Config.Days)
	}
	if people := len(ep.Data.People); spec.Teams > people {
		return nil, 0, fmt.Errorf("core: %d teams exceed the episode's %d people", spec.Teams, people)
	}
	disp, err := w.sessionDispatcher(spec.Method)
	if err != nil {
		return nil, 0, err
	}
	teams := spec.Teams
	if teams <= 0 {
		teams = sys.Teams
	}
	seed := spec.Seed
	if seed == 0 {
		seed = sys.Config.Seed
	}
	cfg := sys.simConfigForDay(ep, day)
	cfg.Events = rec
	// One worker per session: the goroutine budget is the session
	// worker itself. Results are byte-identical for any worker count,
	// so serving loses nothing but per-session routing parallelism.
	cfg.Workers = 1
	simulator, err := sys.newDaySim(ep, day, cfg, ep.Disaster(sys.Scenario.City.Graph), disp, teams, seed)
	if err != nil {
		return nil, 0, err
	}
	return simulator, simulator.Progress().Requests, nil
}
