package rl

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"mobirescue/internal/nn"
)

// smallDQNConfig is a tiny agent configuration that starts learning
// almost immediately, so a few synthetic transitions exercise the full
// train/optimize/target-sync state.
func smallDQNConfig(seed int64) DQNConfig {
	cfg := DefaultDQNConfig()
	cfg.Hidden = []int{8}
	cfg.BufferSize = 64
	cfg.BatchSize = 4
	cfg.LearnStart = 4
	cfg.TargetSync = 3
	cfg.EpsilonDecaySteps = 20
	cfg.Seed = seed
	return cfg
}

// trainedDQN builds a small agent and feeds it enough synthetic
// transitions that the optimizer, target network, RNG, and counters all
// leave their initial state.
func trainedDQN(t testing.TB, seed int64) *DQN {
	t.Helper()
	d, err := NewDQN(3, 2, smallDQNConfig(seed))
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	for i := 0; i < 25; i++ {
		s := []float64{float64(i % 3), float64(i % 5), 0.5}
		a := d.SelectAction(s, nil)
		d.Observe(Transition{
			State:     s,
			Action:    a,
			Reward:    float64(i%4) - 1.5,
			NextState: []float64{float64((i + 1) % 3), float64((i + 1) % 5), 0.5},
			Done:      i%8 == 7,
		})
	}
	return d
}

// checkpointOf serializes an agent's state for byte comparison.
func checkpointOf(t testing.TB, d *DQN, episodes uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveCheckpoint(&buf, episodes); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	return buf.Bytes()
}

func TestDQNCheckpointRoundTrip(t *testing.T) {
	src := trainedDQN(t, 11)
	raw := checkpointOf(t, src, 7)

	dst, err := NewDQN(3, 2, smallDQNConfig(99)) // different seed: state must come from the file
	if err != nil {
		t.Fatal(err)
	}
	episodes, err := dst.LoadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if episodes != 7 {
		t.Errorf("episodes = %d, want 7", episodes)
	}
	// The restored agent must re-serialize to the identical bytes:
	// networks, optimizer moments, counters, and RNG cursor all match.
	if got := checkpointOf(t, dst, 7); !bytes.Equal(got, raw) {
		t.Error("restored agent serializes differently from the source checkpoint")
	}
	// And behave identically from here on: same networks, same epsilon,
	// same RNG cursor mean the same action stream. (Learning itself is
	// not compared — the replay buffer is deliberately excluded from
	// checkpoints, so a warm-started agent resamples from fresh
	// experience.)
	if src.Epsilon() != dst.Epsilon() {
		t.Errorf("epsilon %v vs %v after restore", src.Epsilon(), dst.Epsilon())
	}
	for i := 0; i < 20; i++ {
		s := []float64{float64(i), 0.25, -0.5}
		if as, ad := src.SelectAction(s, nil), dst.SelectAction(s, nil); as != ad {
			t.Fatalf("step %d: actions diverge (%d vs %d)", i, as, ad)
		}
		if gs, gd := src.Greedy(s, nil), dst.Greedy(s, nil); gs != gd {
			t.Fatalf("step %d: greedy actions diverge (%d vs %d)", i, gs, gd)
		}
	}
}

// TestLoadCheckpointCorruption is the corruption table at the learner
// level (ISSUE satellite 3): truncated, bit-flipped, wrong-version,
// wrong-checksum, and shape-mismatched checkpoints must all be rejected
// with typed errors, must never panic, and must never leave a partially
// loaded network — the agent's serialized state is bit-for-bit unchanged
// after every failed load.
func TestLoadCheckpointCorruption(t *testing.T) {
	valid := checkpointOf(t, trainedDQN(t, 11), 3)

	otherShape, err := NewDQN(5, 4, smallDQNConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	shapeMismatch := checkpointOf(t, otherShape, 3)

	garbagePayload := func() []byte {
		var buf bytes.Buffer
		if err := nn.WriteEnvelope(&buf, nn.EnvelopeHeader{Version: CheckpointVersion, Episodes: 1},
			[]byte("not a gob stream at all")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name    string
		data    []byte
		want    error  // typed sentinel when applicable
		wantSub string // error-substring fallback
	}{
		{name: "empty file", data: nil, want: nn.ErrEnvelopeTruncated},
		{name: "truncated header", data: valid[:12], want: nn.ErrEnvelopeTruncated},
		{name: "truncated payload", data: valid[:len(valid)-7], want: nn.ErrEnvelopeTruncated},
		{name: "bad magic", data: flipBit(valid, 1), want: nn.ErrEnvelopeMagic},
		{name: "wrong version", data: putU32(valid, 4, CheckpointVersion+1), want: nn.ErrEnvelopeVersion},
		{name: "payload bit flip", data: flipBit(valid, 40), want: nn.ErrEnvelopeChecksum},
		{name: "checksum bit flip", data: flipBit(valid, 25), want: nn.ErrEnvelopeChecksum},
		{name: "oversized length", data: putU64(valid, 16, nn.MaxEnvelopePayload+1), want: nn.ErrEnvelopeTooLarge},
		{name: "valid envelope, garbage gob", data: garbagePayload, wantSub: "decoding checkpoint"},
		{name: "network shape mismatch", data: shapeMismatch, wantSub: "shape"},
		{name: "huge network", data: hugeNetworkCheckpoint(t), wantSub: "corrupt network"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := trainedDQN(t, 42)
			before := checkpointOf(t, d, 0)
			episodes, err := d.LoadCheckpoint(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt checkpoint loaded without error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
			if episodes != 0 {
				t.Errorf("episodes = %d on failure, want 0", episodes)
			}
			if after := checkpointOf(t, d, 0); !bytes.Equal(before, after) {
				t.Error("failed load mutated the agent")
			}
		})
	}
}

// hugeNetworkCheckpoint is a checkpoint with a valid envelope whose
// network declares layers of 3, 2^20, 2^20 and 2 units: each size is
// small alone, but together they ask for 2^40 weights.
func hugeNetworkCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	var net, payload, buf bytes.Buffer
	huge := netLayout{Sizes: []int{3, 1 << 20, 1 << 20, 2}, Acts: []nn.Act{nn.ActReLU, nn.ActReLU, nn.ActLinear}}
	if err := gob.NewEncoder(&net).Encode(huge); err != nil {
		tb.Fatal(err)
	}
	if err := gob.NewEncoder(&payload).Encode(dqnCheckpointWire{Online: net.Bytes()}); err != nil {
		tb.Fatal(err)
	}
	if err := nn.WriteEnvelope(&buf, nn.EnvelopeHeader{Version: CheckpointVersion, Episodes: 1}, payload.Bytes()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

func putU32(b []byte, off int, v uint32) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

func putU64(b []byte, off int, v uint64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// FuzzLoadCheckpoint throws arbitrary bytes at the checkpoint loader:
// whatever the input, LoadCheckpoint must return an error or succeed —
// never panic, never OOM on declared lengths, and never leave the agent
// half-restored after an error.
func FuzzLoadCheckpoint(f *testing.F) {
	valid := checkpointOf(f, trainedDQN(f, 11), 5)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("MRCK"))
	f.Add(valid[:20])
	f.Add(flipBit(valid, 33))
	f.Add(hugeNetworkCheckpoint(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := NewDQN(3, 2, smallDQNConfig(7))
		if err != nil {
			t.Fatal(err)
		}
		before := checkpointOf(t, d, 0)
		if _, err := d.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			if after := checkpointOf(t, d, 0); !bytes.Equal(before, after) {
				t.Fatal("failed load mutated the agent")
			}
		}
	})
}

func TestRNGStateRoundTrip(t *testing.T) {
	a := NewRNG(123)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	state := a.State()
	b := NewRNG(0)
	b.SetState(state)
	for i := 0; i < 20; i++ {
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("restored RNG diverged at draw %d", i)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Errorf("Intn(5) hit %d distinct values over 1000 draws", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestDeriveSeedDistinct(t *testing.T) {
	seen := make(map[int64]bool)
	for round := 0; round < 8; round++ {
		for actor := 0; actor < 8; actor++ {
			s := DeriveSeed(1, round, actor)
			if seen[s] {
				t.Fatalf("DeriveSeed collision at round %d actor %d", round, actor)
			}
			seen[s] = true
		}
	}
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 2, 3) == DeriveSeed(2, 2, 3) {
		t.Error("DeriveSeed ignores base seed")
	}
}

func TestActorRecordsTrajectory(t *testing.T) {
	net, err := nn.New(3, []int{3, 8, 2}, nn.ActReLU, nn.ActLinear)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewActor(net, 0.5, 99)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < 6; i++ {
		s := []float64{float64(i), 1, -1}
		act := a.SelectAction(s, nil)
		if act < 0 || act >= 2 {
			t.Fatalf("action %d out of range", act)
		}
		r := float64(i)
		total += r
		a.Observe(Transition{State: s, Action: act, Reward: r, NextState: s, Done: i == 5})
	}
	traj := a.Trajectory()
	if len(traj) != 6 {
		t.Fatalf("trajectory has %d transitions, want 6", len(traj))
	}
	if !traj[5].Done {
		t.Error("final transition should be terminal")
	}
	got := 0.0
	for _, tr := range traj {
		got += tr.Reward
	}
	if got != total {
		t.Errorf("trajectory reward = %v, want %v", got, total)
	}
	// Greedy must not record.
	a.Greedy([]float64{0, 0, 0}, nil)
	if len(a.Trajectory()) != 6 {
		t.Error("Greedy should not append to the trajectory")
	}
}

func TestActorValidation(t *testing.T) {
	net, err := nn.New(1, []int{2, 2}, nn.ActLinear, nn.ActLinear)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewActor(nil, 0.1, 1); err == nil {
		t.Error("nil network should error")
	}
	if _, err := NewActor(net, -0.1, 1); err == nil {
		t.Error("negative epsilon should error")
	}
	if _, err := NewActor(net, 1.1, 1); err == nil {
		t.Error("epsilon > 1 should error")
	}
}

// TestActorMatchesDQNExploration pins the shared exploration contract:
// an Actor holding a snapshot of a DQN's online network, the same
// epsilon, and the same RNG stream selects exactly the actions the DQN
// itself would — the property the parallel trainer's determinism rests
// on.
func TestActorMatchesDQNExploration(t *testing.T) {
	cfg := smallDQNConfig(5)
	cfg.EpsilonStart = 0.3 // exercise both the explore and exploit branches
	d, err := NewDQN(3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewActor(d.SnapshotPolicy(), d.Epsilon(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Both draw from splitmix64 streams seeded identically, the DQN never
	// observes (so its epsilon stays at the snapshot value), and the
	// snapshot equals the online network — action sequences must match
	// step for step across explore and exploit draws.
	for i := 0; i < 50; i++ {
		s := []float64{float64(i % 3), 0.5, -0.25}
		if got, want := a.SelectAction(s, nil), d.SelectAction(s, nil); got != want {
			t.Fatalf("step %d: actor chose %d, DQN chose %d", i, got, want)
		}
	}
}
