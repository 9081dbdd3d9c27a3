package rl

import (
	"fmt"

	"mobirescue/internal/nn"
)

// Actor is the rollout half of the actor–learner split (internal/train):
// it decides epsilon-greedily against a frozen policy snapshot on its own
// seeded RNG stream and records every observed transition instead of
// learning from it. A central learner later absorbs the trajectory in a
// deterministic order, which is what makes parallel training
// byte-identical to serial.
//
// Actor implements Policy. It is not safe for concurrent use; run one
// actor per rollout. The snapshot network is only read (nn.Network.Forward
// is concurrency-safe), so any number of actors may share it.
type Actor struct {
	net     *nn.Network
	rng     *RNG
	epsilon float64
	nAction int
	scratch []float64 // private nn.ForwardInto buffer (one per actor)
	traj    []Transition
}

var _ Policy = (*Actor)(nil)

// NewActor builds an actor over a frozen policy snapshot. epsilon is the
// exploration rate for the whole rollout (the learner's rate at snapshot
// time); seed drives this actor's private exploration stream.
func NewActor(net *nn.Network, epsilon float64, seed int64) (*Actor, error) {
	if net == nil {
		return nil, fmt.Errorf("rl: actor needs a policy network")
	}
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("rl: actor epsilon %v out of [0,1]", epsilon)
	}
	return &Actor{
		net:     net,
		rng:     NewRNG(seed),
		epsilon: epsilon,
		nAction: net.OutputSize(),
		scratch: net.NewScratch(),
	}, nil
}

// SelectAction implements Policy: epsilon-greedy over the frozen snapshot.
func (a *Actor) SelectAction(state []float64, mask []bool) int {
	if a.rng.Float64() < a.epsilon {
		return randValid(a.rng, a.nAction, mask)
	}
	return argmaxMasked(a.net.ForwardInto(state, a.scratch), mask)
}

// Greedy implements Policy: best action, no exploration.
func (a *Actor) Greedy(state []float64, mask []bool) int {
	return argmaxMasked(a.net.ForwardInto(state, a.scratch), mask)
}

// Observe implements Policy by appending to the recorded trajectory.
func (a *Actor) Observe(t Transition) {
	a.traj = append(a.traj, t)
}

// Trajectory returns the recorded transitions in observation order.
func (a *Actor) Trajectory() []Transition { return a.traj }
