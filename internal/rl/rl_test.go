package rl

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestReplayBasics(t *testing.T) {
	r := NewReplay(3)
	if r.Len() != 0 || r.Cap() != 3 {
		t.Fatalf("fresh buffer Len=%d Cap=%d", r.Len(), r.Cap())
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{Action: i})
	}
	if r.Len() != 3 {
		t.Errorf("Len after overflow = %d, want 3", r.Len())
	}
	// Oldest (0, 1) evicted: remaining actions are 2, 3, 4.
	seen := make(map[int]bool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		for _, tr := range r.Sample(rng, 4, nil) {
			seen[tr.Action] = true
		}
	}
	for _, a := range []int{2, 3, 4} {
		if !seen[a] {
			t.Errorf("action %d never sampled", a)
		}
	}
	for _, a := range []int{0, 1} {
		if seen[a] {
			t.Errorf("evicted action %d sampled", a)
		}
	}
}

func TestReplayEmptySample(t *testing.T) {
	r := NewReplay(4)
	rng := rand.New(rand.NewSource(1))
	if got := r.Sample(rng, 2, nil); got != nil {
		t.Errorf("empty sample = %v", got)
	}
	r.Add(Transition{})
	if got := r.Sample(rng, 0, nil); got != nil {
		t.Errorf("n=0 sample = %v", got)
	}
}

func TestReplayPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewReplay(0)
}

func TestArgmaxMasked(t *testing.T) {
	vals := []float64{1, 5, 3}
	tests := []struct {
		name string
		mask []bool
		want int
	}{
		{"nil mask", nil, 1},
		{"best masked out", []bool{true, false, true}, 2},
		{"single valid", []bool{true, false, false}, 0},
		{"none valid", []bool{false, false, false}, -1},
	}
	for _, tt := range tests {
		if got := argmaxMasked(vals, tt.mask); got != tt.want {
			t.Errorf("%s: argmaxMasked = %d, want %d", tt.name, got, tt.want)
		}
	}
	if got := maxMasked(vals, nil); got != 5 {
		t.Errorf("maxMasked = %v", got)
	}
	if got := maxMasked(vals, []bool{false, false, false}); got != 0 {
		t.Errorf("maxMasked none valid = %v", got)
	}
}

func TestRandValidRespectsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mask := []bool{false, true, false, true}
	for i := 0; i < 100; i++ {
		a := randValid(rng, 4, mask)
		if a != 1 && a != 3 {
			t.Fatalf("invalid action %d selected", a)
		}
	}
	if a := randValid(rng, 4, []bool{false, false, false, false}); a != -1 {
		t.Errorf("no-valid should return -1, got %d", a)
	}
	// nil mask: uniform over all.
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[randValid(rng, 3, nil)] = true
	}
	if len(seen) != 3 {
		t.Errorf("nil mask should reach all actions, saw %v", seen)
	}
}

// chainEnv is a 1-D corridor: start at cell 0, reward 1 for reaching the
// right end, -0.01 per step, episode capped by the caller. Action 0 =
// left, 1 = right.
type chainEnv struct {
	n   int
	pos int
}

func (e *chainEnv) Reset() []float64 { e.pos = 0; return e.state() }
func (e *chainEnv) state() []float64 {
	s := make([]float64, e.n)
	s[e.pos] = 1
	return s
}
func (e *chainEnv) Step(a int) ([]float64, float64, bool) {
	if a == 1 {
		e.pos++
	} else if e.pos > 0 {
		e.pos--
	}
	if e.pos == e.n-1 {
		return e.state(), 1, true
	}
	return e.state(), -0.01, false
}
func (e *chainEnv) StateSize() int  { return e.n }
func (e *chainEnv) NumActions() int { return 2 }

func TestDQNConfigValidation(t *testing.T) {
	cfg := DefaultDQNConfig()
	if _, err := NewDQN(0, 2, cfg); err == nil {
		t.Error("zero state size should error")
	}
	if _, err := NewDQN(2, 0, cfg); err == nil {
		t.Error("zero actions should error")
	}
	bad := cfg
	bad.Gamma = 1.0
	if _, err := NewDQN(2, 2, bad); err == nil {
		t.Error("gamma=1 should error")
	}
	bad = cfg
	bad.BufferSize = 1
	if _, err := NewDQN(2, 2, bad); err == nil {
		t.Error("buffer smaller than batch should error")
	}
}

func TestDQNEpsilonDecay(t *testing.T) {
	cfg := DefaultDQNConfig()
	cfg.EpsilonStart, cfg.EpsilonEnd, cfg.EpsilonDecaySteps = 1.0, 0.1, 100
	d, err := NewDQN(2, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Epsilon(); got != 1.0 {
		t.Errorf("initial epsilon = %v", got)
	}
	d.steps = 50
	if got := d.Epsilon(); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("mid epsilon = %v, want 0.55", got)
	}
	d.steps = 1000
	if got := d.Epsilon(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("final epsilon = %v", got)
	}
}

func TestDQNSolvesChain(t *testing.T) {
	env := &chainEnv{n: 6}
	cfg := DefaultDQNConfig()
	cfg.Hidden = []int{32}
	cfg.EpsilonDecaySteps = 1500
	cfg.LearnStart = 100
	cfg.TargetSync = 100
	cfg.Seed = 7
	d, err := NewDQN(env.StateSize(), env.NumActions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 120 episodes of at most 100 steps each.
	returns := make([]float64, 0, 120)
	for ep := 0; ep < 120; ep++ {
		state, total := env.Reset(), 0.0
		for step := 0; step < 100; step++ {
			a := d.SelectAction(state, nil)
			next, reward, done := env.Step(a)
			total += reward
			d.Observe(Transition{State: state, Action: a, Reward: reward, NextState: next, Done: done})
			state = next
			if done {
				break
			}
		}
		returns = append(returns, total)
	}
	// Later episodes should beat early ones.
	early := mean(returns[:20])
	late := mean(returns[len(returns)-20:])
	if late <= early {
		t.Errorf("no learning: early=%v late=%v", early, late)
	}
	// The greedy policy should walk straight right from every cell.
	for pos := 0; pos < env.n-1; pos++ {
		env.pos = pos
		if a := d.Greedy(env.state(), nil); a != 1 {
			t.Errorf("greedy action at cell %d = %d, want 1 (right)", pos, a)
		}
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maskedEnv wraps chainEnv forbidding action 0 (left) always.
type maskedEnv struct{ chainEnv }

func (e *maskedEnv) ValidActions() []bool { return []bool{false, true} }

func TestDQNRespectsMask(t *testing.T) {
	env := &maskedEnv{chainEnv{n: 4}}
	cfg := DefaultDQNConfig()
	cfg.Seed = 3
	d, err := NewDQN(env.StateSize(), env.NumActions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := env.Reset()
	for i := 0; i < 200; i++ {
		if a := d.SelectAction(state, env.ValidActions()); a != 1 {
			t.Fatalf("masked action %d selected", a)
		}
	}
}

func TestDQNSaveLoadPolicy(t *testing.T) {
	cfg := DefaultDQNConfig()
	d, err := NewDQN(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDQN(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.LoadPolicy(&buf); err != nil {
		t.Fatal(err)
	}
	state := []float64{0.1, 0.2, 0.3}
	qa := d.SnapshotPolicy().ForwardInto(state, d.scratch)
	qb := d2.SnapshotPolicy().ForwardInto(state, d2.scratch)
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("Q values differ after load: %v vs %v", qa, qb)
		}
	}
	// Shape mismatch rejected.
	var buf2 bytes.Buffer
	if err := d.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	d3, err := NewDQN(4, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d3.LoadPolicy(&buf2); err == nil {
		t.Error("shape mismatch should error")
	}
}

// BenchmarkDQNInference times one greedy decision at MobiRescue's
// Q-network (17 → 64 → 64 → 8).
func BenchmarkDQNInference(b *testing.B) {
	d := mobiRescueDQN(b)
	state := make([]float64, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Greedy(state, nil)
	}
}

// BenchmarkDQNLearnStep times one learner step (a minibatch of 32) at
// MobiRescue's Q-network.
func BenchmarkDQNLearnStep(b *testing.B) {
	d := mobiRescueDQN(b)
	d.learn() // the first step allocates the optimizer's moments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.learn()
	}
}

// eagerRing is the replay ring as it was first written: every slot
// allocated up front. TestReplayMatchesEagerRing pins Replay to it.
type eagerRing struct {
	buf  []Transition
	next int
	full bool
}

func (r *eagerRing) add(t Transition) {
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

func (r *eagerRing) len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// TestReplayMatchesEagerRing feeds a capacity-5 replay 0, 3, 5 and 12
// transitions (empty, partly filled, exactly full, wrapped twice) and
// requires the same Len, Cap and Sample draws as an eagerly allocated
// ring, with storage that never outgrows the capacity.
func TestReplayMatchesEagerRing(t *testing.T) {
	for _, n := range []int{0, 3, 5, 12} {
		r := NewReplay(5)
		ref := &eagerRing{buf: make([]Transition, 5)}
		for i := 0; i < n; i++ {
			tr := Transition{Action: i, Reward: float64(i)}
			r.Add(tr)
			ref.add(tr)
		}
		if r.Len() != ref.len() || r.Cap() != 5 {
			t.Fatalf("n=%d: Len=%d Cap=%d, want %d and 5", n, r.Len(), r.Cap(), ref.len())
		}
		if cap(r.buf) > 5 {
			t.Fatalf("n=%d: storage holds %d slots, more than the capacity", n, cap(r.buf))
		}
		a, b := NewRNG(int64(n)), NewRNG(int64(n))
		got := r.Sample(a, 64, nil)
		if ref.len() == 0 {
			if got != nil {
				t.Fatalf("n=%d: empty replay sampled %v", n, got)
			}
			continue
		}
		for k, tr := range got {
			if want := ref.buf[b.Intn(ref.len())]; tr.Action != want.Action {
				t.Fatalf("n=%d draw %d: sampled action %d, eager ring gives %d", n, k, tr.Action, want.Action)
			}
		}
	}
}
