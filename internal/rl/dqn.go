package rl

import (
	"fmt"
	"io"

	"mobirescue/internal/nn"
	"mobirescue/internal/obs"
)

// Exported RL training telemetry metric names (see README
// "Observability").
const (
	MetricEnvSteps   = "mobirescue_rl_env_steps_total"
	MetricLearnSteps = "mobirescue_rl_learn_steps_total"
	MetricReplaySize = "mobirescue_rl_replay_occupancy"
	MetricEpsilon    = "mobirescue_rl_epsilon"
	MetricBatchLoss  = "mobirescue_rl_batch_loss"
)

// dqnMetrics holds the agent's optional telemetry handles; the zero value
// (all nil) is a free no-op.
type dqnMetrics struct {
	envSteps   *obs.Counter
	learnSteps *obs.Counter
	replaySize *obs.Gauge
	epsilon    *obs.Gauge
	batchLoss  *obs.Gauge
}

// DQNConfig tunes the deep Q-learning agent.
type DQNConfig struct {
	// Hidden lists hidden-layer sizes for the Q-network.
	Hidden []int
	// Gamma is the discount factor.
	Gamma float64
	// LR is the Adam learning rate.
	LR float64
	// EpsilonStart/End and EpsilonDecaySteps schedule exploration:
	// epsilon anneals linearly over the first EpsilonDecaySteps
	// environment steps.
	EpsilonStart, EpsilonEnd float64
	EpsilonDecaySteps        int
	// BufferSize and BatchSize configure experience replay.
	BufferSize, BatchSize int
	// LearnStart delays learning until the buffer holds this many
	// transitions.
	LearnStart int
	// TargetSync is the number of learning steps between target-network
	// syncs.
	TargetSync int
	// GradClip bounds the gradient L2 norm (0 disables clipping).
	GradClip float64
	// Seed drives exploration and initialization.
	Seed int64
}

// DefaultDQNConfig returns standard hyperparameters sized for the
// dispatch problem.
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		Hidden:            []int{64, 64},
		Gamma:             0.95,
		LR:                1e-3,
		EpsilonStart:      1.0,
		EpsilonEnd:        0.05,
		EpsilonDecaySteps: 5000,
		BufferSize:        20000,
		BatchSize:         32,
		LearnStart:        500,
		TargetSync:        250,
		GradClip:          5,
		Seed:              1,
	}
}

// DQN is a deep Q-learning agent with a target network and uniform
// experience replay. It is not safe for concurrent use.
//
// DQN implements Policy. Its exploration/replay randomness comes from an
// exportable-state RNG so SaveCheckpoint/LoadCheckpoint can resume a
// training run byte-identically.
type DQN struct {
	cfg      DQNConfig
	online   *nn.Network
	target   *nn.Network
	opt      *nn.Adam
	replay   *Replay
	rng      *RNG
	grad     []float64
	scratch  []float64 // nn.ForwardInto buffer for decisions and targets, and Backward's deltas
	acts     []float64 // the online network's nn.ForwardTrace of the sample learn is on
	dOut     []float64
	batch    []Transition
	steps    int     // environment steps observed
	learnN   int     // learning steps taken
	lastLoss float64 // mean squared TD error of the last minibatch
	nAction  int
	met      dqnMetrics
}

var _ Policy = (*DQN)(nil)

// NewDQN builds an agent for the given state/action sizes.
func NewDQN(stateSize, numActions int, cfg DQNConfig) (*DQN, error) {
	if stateSize <= 0 || numActions <= 0 {
		return nil, fmt.Errorf("rl: invalid sizes state=%d actions=%d", stateSize, numActions)
	}
	if cfg.Gamma < 0 || cfg.Gamma >= 1 {
		return nil, fmt.Errorf("rl: gamma %v out of [0,1)", cfg.Gamma)
	}
	if cfg.BatchSize <= 0 || cfg.BufferSize < cfg.BatchSize {
		return nil, fmt.Errorf("rl: buffer %d must hold at least one batch of %d", cfg.BufferSize, cfg.BatchSize)
	}
	sizes := append([]int{stateSize}, cfg.Hidden...)
	sizes = append(sizes, numActions)
	online, err := nn.New(cfg.Seed, sizes, nn.ActReLU, nn.ActLinear)
	if err != nil {
		return nil, err
	}
	d := &DQN{
		cfg:     cfg,
		opt:     nn.NewAdam(cfg.LR),
		replay:  NewReplay(cfg.BufferSize),
		rng:     NewRNG(cfg.Seed),
		dOut:    make([]float64, numActions),
		nAction: numActions,
	}
	d.setNetworks(online, online.Clone())
	return d, nil
}

// setNetworks installs the online and target networks and sizes the
// learner's buffers from them: a loaded network may have hidden sizes
// other than Config.Hidden.
func (d *DQN) setNetworks(online, target *nn.Network) {
	d.online, d.target = online, target
	d.grad = make([]float64, online.NumParams())
	d.scratch = online.NewScratch()
	d.acts = make([]float64, online.TraceSize())
}

// EnableMetrics registers the agent's training telemetry (environment
// and learning step counters, replay occupancy, exploration rate, batch
// loss, episode returns) with reg. Nil reg is a no-op; telemetry is
// disabled (and free) by default.
func (d *DQN) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.met = dqnMetrics{
		envSteps:   reg.Counter(MetricEnvSteps, "RL transitions observed."),
		learnSteps: reg.Counter(MetricLearnSteps, "Gradient steps taken."),
		replaySize: reg.Gauge(MetricReplaySize, "Transitions currently in the replay buffer."),
		epsilon:    reg.Gauge(MetricEpsilon, "Current exploration rate."),
		batchLoss:  reg.Gauge(MetricBatchLoss, "Mean squared TD error of the last minibatch."),
	}
}

// Epsilon returns the current exploration rate.
func (d *DQN) Epsilon() float64 {
	if d.cfg.EpsilonDecaySteps <= 0 {
		return d.cfg.EpsilonEnd
	}
	frac := float64(d.steps) / float64(d.cfg.EpsilonDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return d.cfg.EpsilonStart + (d.cfg.EpsilonEnd-d.cfg.EpsilonStart)*frac
}

// SelectAction picks an epsilon-greedy action under the optional validity
// mask. It returns -1 when no action is valid.
func (d *DQN) SelectAction(state []float64, mask []bool) int {
	if d.rng.Float64() < d.Epsilon() {
		return randValid(d.rng, d.nAction, mask)
	}
	return argmaxMasked(d.online.ForwardInto(state, d.scratch), mask)
}

// Greedy picks the best action without exploration.
func (d *DQN) Greedy(state []float64, mask []bool) int {
	return argmaxMasked(d.online.ForwardInto(state, d.scratch), mask)
}

// Observe records a transition and performs one learning step when
// enough experience has accumulated.
func (d *DQN) Observe(t Transition) {
	d.replay.Add(t)
	d.steps++
	d.met.envSteps.Inc()
	d.met.replaySize.Set(float64(d.replay.Len()))
	d.met.epsilon.Set(d.Epsilon())
	if d.replay.Len() >= d.cfg.LearnStart && d.replay.Len() >= d.cfg.BatchSize {
		d.learn()
	}
}

// learn samples a minibatch and applies one Q-learning gradient step.
// Each sample runs the target network forward once (unless terminal)
// and the online network forward once, keeping its activations for
// Backward; the loss and the gradient accumulate in sample order. It
// allocates nothing once the optimizer holds its moments.
func (d *DQN) learn() {
	d.batch = d.replay.Sample(d.rng, d.cfg.BatchSize, d.batch)
	nn.Zero(d.grad)
	dOut := d.dOut
	lossSum := 0.0
	for _, tr := range d.batch {
		target := tr.Reward
		if !tr.Done {
			// nextQ aliases d.scratch; it is fully consumed into the
			// scalar target before Backward reuses the buffer.
			nextQ := d.target.ForwardInto(tr.NextState, d.scratch)
			target += d.cfg.Gamma * maxMasked(nextQ, tr.NextMask)
		}
		q := d.online.ForwardTrace(tr.State, d.acts)
		for i := range dOut {
			dOut[i] = 0
		}
		// Squared TD error on the taken action only.
		td := q[tr.Action] - target
		lossSum += td * td
		dOut[tr.Action] = 2 * td
		d.online.Backward(d.acts, dOut, d.grad, d.scratch)
	}
	nn.Scale(d.grad, 1.0/float64(len(d.batch)))
	nn.ClipGradient(d.grad, d.cfg.GradClip)
	d.opt.Step(d.online.Params(), d.grad)
	d.learnN++
	d.lastLoss = lossSum / float64(len(d.batch))
	d.met.learnSteps.Inc()
	d.met.batchLoss.Set(d.lastLoss)
	if d.cfg.TargetSync > 0 && d.learnN%d.cfg.TargetSync == 0 {
		d.target.SetParams(d.online.Params())
	}
}

// SnapshotPolicy returns a frozen deep copy of the online network, the
// policy snapshot parallel actors roll out against (see internal/train).
func (d *DQN) SnapshotPolicy() *nn.Network { return d.online.Clone() }

// Save writes the online network (the policy) to w.
func (d *DQN) Save(w io.Writer) error { return d.online.Save(w) }

// LoadPolicy replaces the online and target networks with one written by
// Save.
func (d *DQN) LoadPolicy(r io.Reader) error {
	net, err := nn.Load(r)
	if err != nil {
		return err
	}
	if net.InputSize() != d.online.InputSize() || net.OutputSize() != d.online.OutputSize() {
		return fmt.Errorf("rl: loaded network shape %dx%d does not match agent %dx%d",
			net.InputSize(), net.OutputSize(), d.online.InputSize(), d.online.OutputSize())
	}
	d.setNetworks(net, net.Clone())
	return nil
}

// Steps returns the number of transitions observed.
func (d *DQN) Steps() int { return d.steps }

// LastLoss returns the mean squared TD error of the most recent
// learning minibatch (0 before the first learn step). The training
// pipeline's flight recorder reads it per round.
func (d *DQN) LastLoss() float64 { return d.lastLoss }
