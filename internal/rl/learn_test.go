package rl

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"mobirescue/internal/nn"
)

// netLayout is the part of a network's saved form (nn's gob wire
// format) the reference learner reads: layer sizes and activations.
type netLayout struct {
	Sizes []int
	Acts  []nn.Act
}

// refLayer locates one layer's parameters in the flat vector, as nn
// lays them out.
type refLayer struct {
	in, out    int
	wOff, bOff int
	act        nn.Act
}

// refLayersOf reads n's layers from its saved form.
func refLayersOf(t testing.TB, n *nn.Network) []refLayer {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var w netLayout
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	var layers []refLayer
	total := 0
	for l := 0; l+1 < len(w.Sizes); l++ {
		in, out := w.Sizes[l], w.Sizes[l+1]
		layers = append(layers, refLayer{in: in, out: out, wOff: total, bOff: total + in*out, act: w.Acts[l]})
		total += in*out + out
	}
	return layers
}

// refApply and refDeriv are nn's activations and their derivatives
// given the output.
func refApply(a nn.Act, x float64) float64 {
	switch a {
	case nn.ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case nn.ActTanh:
		return math.Tanh(x)
	case nn.ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

func refDeriv(a nn.Act, y float64) float64 {
	switch a {
	case nn.ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case nn.ActTanh:
		return 1 - y*y
	case nn.ActSigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// refForward is the network's forward pass as first written, one output
// row at a time into fresh slices.
func refForward(layers []refLayer, params, x []float64) []float64 {
	cur := x
	for _, ll := range layers {
		next := make([]float64, ll.out)
		for o := 0; o < ll.out; o++ {
			sum := params[ll.bOff+o]
			row := ll.wOff + o*ll.in
			for i := 0; i < ll.in; i++ {
				sum += params[row+i] * cur[i]
			}
			next[o] = refApply(ll.act, sum)
		}
		cur = next
	}
	return cur
}

// refGradient is the network's gradient as first written: a second
// forward pass that keeps every layer's output, then a backward pass
// over every row, accumulating into grad.
func refGradient(layers []refLayer, params, x, dOut, grad []float64) []float64 {
	// Forward pass, keeping every layer's output.
	outs := make([][]float64, len(layers)+1)
	outs[0] = append([]float64(nil), x...)
	for li, ll := range layers {
		next := make([]float64, ll.out)
		for o := 0; o < ll.out; o++ {
			sum := params[ll.bOff+o]
			row := ll.wOff + o*ll.in
			for i := 0; i < ll.in; i++ {
				sum += params[row+i] * outs[li][i]
			}
			next[o] = refApply(ll.act, sum)
		}
		outs[li+1] = next
	}
	// Backward pass.
	delta := append([]float64(nil), dOut...)
	for li := len(layers) - 1; li >= 0; li-- {
		ll := layers[li]
		out := outs[li+1]
		in := outs[li]
		// delta through the activation.
		for o := 0; o < ll.out; o++ {
			delta[o] *= refDeriv(ll.act, out[o])
		}
		var prevDelta []float64
		if li > 0 {
			prevDelta = make([]float64, ll.in)
		}
		for o := 0; o < ll.out; o++ {
			row := ll.wOff + o*ll.in
			grad[ll.bOff+o] += delta[o]
			for i := 0; i < ll.in; i++ {
				grad[row+i] += delta[o] * in[i]
				if prevDelta != nil {
					prevDelta[i] += delta[o] * params[row+i]
				}
			}
		}
		delta = prevDelta
	}
	return outs[len(outs)-1]
}

// refLearn is DQN.learn as first written, on the reference forward pass
// and gradient: a forward pass of the online network for the TD error,
// then the gradient's own second forward pass.
func refLearn(d *DQN, layers []refLayer) {
	d.batch = d.replay.Sample(d.rng, d.cfg.BatchSize, d.batch)
	nn.Zero(d.grad)
	dOut := d.dOut
	lossSum := 0.0
	for _, tr := range d.batch {
		target := tr.Reward
		if !tr.Done {
			nextQ := refForward(layers, d.target.Params(), tr.NextState)
			target += d.cfg.Gamma * maxMasked(nextQ, tr.NextMask)
		}
		q := refForward(layers, d.online.Params(), tr.State)
		for i := range dOut {
			dOut[i] = 0
		}
		// Squared TD error on the taken action only.
		td := q[tr.Action] - target
		lossSum += td * td
		dOut[tr.Action] = 2 * td
		refGradient(layers, d.online.Params(), tr.State, dOut, d.grad)
	}
	nn.Scale(d.grad, 1.0/float64(len(d.batch)))
	nn.ClipGradient(d.grad, d.cfg.GradClip)
	d.opt.Step(d.online.Params(), d.grad)
	d.learnN++
	d.lastLoss = lossSum / float64(len(d.batch))
	if d.cfg.TargetSync > 0 && d.learnN%d.cfg.TargetSync == 0 {
		d.target.SetParams(d.online.Params())
	}
}

// refObserve is DQN.Observe driving refLearn.
func refObserve(d *DQN, layers []refLayer, t Transition) {
	d.replay.Add(t)
	d.steps++
	if d.replay.Len() >= d.cfg.LearnStart && d.replay.Len() >= d.cfg.BatchSize {
		refLearn(d, layers)
	}
}

// learnTransitions draws n transitions over random states, with a
// terminal transition every seventh step and next-state masks that are
// nil, partial or empty in turn.
func learnTransitions(seed int64, stateSize, numActions, n int) []Transition {
	rng := rand.New(rand.NewSource(seed))
	vec := func() []float64 {
		v := make([]float64, stateSize)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	out := make([]Transition, n)
	for k := range out {
		var mask []bool
		switch k % 4 {
		case 1, 2:
			mask = make([]bool, numActions)
			for i := range mask {
				mask[i] = rng.Intn(2) == 0
			}
		case 3:
			mask = make([]bool, numActions)
		}
		out[k] = Transition{
			State:     vec(),
			Action:    rng.Intn(numActions),
			Reward:    rng.NormFloat64(),
			NextState: vec(),
			Done:      k%7 == 6,
			NextMask:  mask,
		}
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameLearner fails unless the two agents' online and target
// parameters, Adam moments and step count, learn-step count and last
// loss are bit-identical.
func requireSameLearner(t *testing.T, step int, got, want *DQN) {
	t.Helper()
	gm, gv, gt := got.opt.State()
	wm, wv, wt := want.opt.State()
	switch {
	case !sameBits(got.online.Params(), want.online.Params()):
		t.Fatalf("step %d: online parameters differ from the reference", step)
	case !sameBits(got.target.Params(), want.target.Params()):
		t.Fatalf("step %d: target parameters differ from the reference", step)
	case !sameBits(gm, wm) || !sameBits(gv, wv) || gt != wt:
		t.Fatalf("step %d: Adam state differs from the reference", step)
	case got.learnN != want.learnN:
		t.Fatalf("step %d: %d learn steps, reference took %d", step, got.learnN, want.learnN)
	case math.Float64bits(got.LastLoss()) != math.Float64bits(want.LastLoss()):
		t.Fatalf("step %d: loss %v, reference %v", step, got.LastLoss(), want.LastLoss())
	}
}

// runAgainstReference feeds the same transitions to got (DQN.Observe)
// and want (refObserve) and compares them after every transition.
func runAgainstReference(t *testing.T, got, want *DQN, trs []Transition) {
	t.Helper()
	layers := refLayersOf(t, want.online)
	for k, tr := range trs {
		got.Observe(tr)
		refObserve(want, layers, tr)
		requireSameLearner(t, k, got, want)
	}
	if want.learnN == 0 {
		t.Fatal("the run took no learn step")
	}
}

// TestLearnMatchesReference pins DQN.learn bit for bit to the learner
// as first written, at MobiRescue's Q-network (17 → 64 → 64 → 8, batch
// 32) over 1,500 learn steps that cross six target syncs, with terminal
// transitions and nil, partial and empty next-state masks.
func TestLearnMatchesReference(t *testing.T) {
	cfg := DefaultDQNConfig()
	cfg.LearnStart = cfg.BatchSize
	agents := [2]*DQN{}
	for i := range agents {
		d, err := NewDQN(17, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = d
	}
	runAgainstReference(t, agents[0], agents[1], learnTransitions(5, 17, 8, 1500+cfg.BatchSize-1))
	if n := agents[0].learnN; n != 1500 || n/cfg.TargetSync != 6 {
		t.Fatalf("%d learn steps, want 1500 crossing 6 target syncs", n)
	}
}

// TestLearnMatchesReferenceOddShape runs the same check on hidden
// layers of 7 and 5 Tanh units and 3 actions, batch 5, so the layer
// kernel's remainder rows and a derivative other than ReLU's run.
func TestLearnMatchesReferenceOddShape(t *testing.T) {
	cfg := DefaultDQNConfig()
	cfg.Hidden = []int{7, 5}
	cfg.BatchSize = 5
	cfg.BufferSize = 200
	cfg.LearnStart = 5
	cfg.TargetSync = 40
	tanh, err := nn.New(9, []int{6, 7, 5, 3}, nn.ActTanh, nn.ActLinear)
	if err != nil {
		t.Fatal(err)
	}
	var policy bytes.Buffer
	if err := tanh.Save(&policy); err != nil {
		t.Fatal(err)
	}
	agents := [2]*DQN{}
	for i := range agents {
		d, err := NewDQN(6, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.LoadPolicy(bytes.NewReader(policy.Bytes())); err != nil {
			t.Fatal(err)
		}
		agents[i] = d
	}
	runAgainstReference(t, agents[0], agents[1], learnTransitions(6, 6, 3, 400))
	if agents[0].learnN < 300 {
		t.Fatalf("%d learn steps, want at least 300", agents[0].learnN)
	}
}

// TestLoadCheckpointOtherHiddenLearns restores a checkpoint whose hidden
// layers (96, 80) differ from the agent's Config.Hidden (64, 64) and
// learns on: the learner's buffers follow the loaded network, and the
// steps match the reference.
func TestLoadCheckpointOtherHiddenLearns(t *testing.T) {
	srcCfg := DefaultDQNConfig()
	srcCfg.Hidden = []int{96, 80}
	srcCfg.LearnStart = srcCfg.BatchSize
	src, err := NewDQN(17, 8, srcCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range learnTransitions(7, 17, 8, 60) {
		src.Observe(tr)
	}
	raw := checkpointOf(t, src, 1)

	cfg := DefaultDQNConfig()
	cfg.LearnStart = cfg.BatchSize
	agents := [2]*DQN{}
	for i := range agents {
		d, err := NewDQN(17, 8, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.LoadCheckpoint(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		agents[i] = d
	}
	runAgainstReference(t, agents[0], agents[1], learnTransitions(8, 17, 8, 200))
}

// TestLearnZeroAlloc is the 0 allocs/op contract for a learner step at
// MobiRescue's Q-network.
func TestLearnZeroAlloc(t *testing.T) {
	d := mobiRescueDQN(t)
	if n := testing.AllocsPerRun(50, d.learn); n != 0 {
		t.Fatalf("DQN.learn allocates %v/op, want 0", n)
	}
}

// mobiRescueDQN builds an agent with the Q-network MobiRescue builds for
// a 7-region city (17 inputs, 64×64 hidden, 8 actions, batch 32) and
// fills its replay buffer with 500 transitions, enough to learn from.
func mobiRescueDQN(tb testing.TB) *DQN {
	tb.Helper()
	cfg := DefaultDQNConfig()
	d, err := NewDQN(17, 8, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for _, tr := range learnTransitions(1, 17, 8, cfg.LearnStart) {
		d.replay.Add(tr)
	}
	return d
}
