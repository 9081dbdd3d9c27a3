// Package rl provides the reinforcement-learning machinery behind
// MobiRescue's dispatcher (Section IV-C): the Policy interface a
// dispatcher drives, a uniform replay buffer, and a DQN agent
// (epsilon-greedy exploration, target network, Adam).
// The DNN function approximators come from internal/nn, mirroring the
// paper's use of a Pensieve-style deep network [24].
package rl

import (
	"fmt"
)

// Policy is the decision-and-feedback surface a dispatcher drives: pick
// actions for states and observe the resulting transitions. The central
// learner (*DQN) implements it by learning online; *Actor implements it
// by deciding against a frozen policy snapshot and recording the
// trajectory for a central learner to absorb later (the actor–learner
// split in internal/train).
type Policy interface {
	// SelectAction picks an action for state under the optional validity
	// mask, possibly exploring. It returns -1 when no action is valid.
	SelectAction(state []float64, mask []bool) int
	// Greedy picks the best action without exploration (-1 when none is
	// valid).
	Greedy(state []float64, mask []bool) int
	// Observe records one transition.
	Observe(t Transition)
}

// IntSource yields bounded uniform integers; *math/rand.Rand and *RNG
// both satisfy it.
type IntSource interface {
	Intn(n int) int
}

// Transition is one (s, a, r, s', done) experience.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	NextState []float64
	Done      bool
	NextMask  []bool // valid actions in NextState; nil = all
}

// Replay is a fixed-capacity ring buffer of transitions with uniform
// sampling. Its storage grows as transitions arrive, never past the
// capacity, so an agent that only decides (an inference-only
// dispatcher) holds no slots. The zero value is not usable; construct
// with NewReplay.
type Replay struct {
	buf      []Transition // stored transitions; buf[i] is slot i of the ring
	capacity int
	next     int // slot the next Add writes
	full     bool
}

// NewReplay returns a replay buffer holding up to capacity transitions.
// It panics when capacity is not positive, which indicates programmer
// error.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: replay capacity %d must be positive", capacity))
	}
	return &Replay{capacity: capacity}
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Cap returns the buffer capacity.
func (r *Replay) Cap() int { return r.capacity }

// Add stores a transition, evicting the oldest when full.
func (r *Replay) Add(t Transition) {
	if r.full {
		r.buf[r.next] = t
	} else {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Transition, len(r.buf), min(max(2*cap(r.buf), 64), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, t)
	}
	r.next++
	if r.next == r.capacity {
		r.next = 0
		r.full = true
	}
}

// Sample draws n transitions uniformly with replacement into dst (reused
// when cap allows) and returns it. It returns nil when the buffer is
// empty.
func (r *Replay) Sample(rng IntSource, n int, dst []Transition) []Transition {
	sz := r.Len()
	if sz == 0 || n <= 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]Transition, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		dst[i] = r.buf[rng.Intn(sz)]
	}
	return dst
}

// argmaxMasked returns the index of the largest value among valid
// entries. A nil mask admits all. It returns -1 when nothing is valid.
func argmaxMasked(vals []float64, mask []bool) int {
	best := -1
	for i, v := range vals {
		if mask != nil && !mask[i] {
			continue
		}
		if best == -1 || v > vals[best] {
			best = i
		}
	}
	return best
}

// maxMasked returns the largest valid value, or 0 when nothing is valid.
func maxMasked(vals []float64, mask []bool) float64 {
	i := argmaxMasked(vals, mask)
	if i < 0 {
		return 0
	}
	return vals[i]
}

// randValid picks a uniformly random valid action, or -1 when none is.
func randValid(rng IntSource, n int, mask []bool) int {
	if mask == nil {
		return rng.Intn(n)
	}
	var valid []int
	for i := 0; i < n && i < len(mask); i++ {
		if mask[i] {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return -1
	}
	return valid[rng.Intn(len(valid))]
}
