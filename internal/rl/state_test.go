package rl

import (
	"bytes"
	"testing"
)

// TestCaptureRestoreFullStateRoundTrip proves the snapshot blob carries
// the agent's complete mutable state, with the replay ring partly
// filled and wrapped: a restored agent re-captures to the same bytes
// and behaves identically from then on.
func TestCaptureRestoreFullStateRoundTrip(t *testing.T) {
	for _, extra := range []int{0, 125} { // trainedDQN fills 25 of 64 slots
		d := trainedDQN(t, 42)
		for i := 0; i < extra; i++ {
			d.Observe(Transition{
				State:     []float64{float64(i % 3), float64(i % 5), 0.5},
				Action:    i % 2,
				Reward:    float64(i%4) - 1.5,
				NextState: []float64{float64((i + 1) % 3), float64((i + 1) % 5), 0.5},
				Done:      i%8 == 7,
			})
		}
		if wrapped := 25+extra > d.replay.Cap(); d.replay.full != wrapped {
			t.Fatalf("extra=%d: replay full = %v, want %v", extra, d.replay.full, wrapped)
		}
		captureRestoreRoundTrip(t, d)
	}
}

func captureRestoreRoundTrip(t *testing.T, d *DQN) {
	t.Helper()
	blob, err := d.CaptureFullState(7)
	if err != nil {
		t.Fatalf("CaptureFullState: %v", err)
	}

	// Restore into an agent built with a different seed: every divergent
	// piece of state (weights, optimizer, replay, RNG, counters) must be
	// overwritten by the blob.
	d2, err := NewDQN(3, 2, smallDQNConfig(99))
	if err != nil {
		t.Fatalf("NewDQN: %v", err)
	}
	eps, err := d2.RestoreFullState(blob)
	if err != nil {
		t.Fatalf("RestoreFullState: %v", err)
	}
	if eps != 7 {
		t.Errorf("restored episodes = %d, want 7", eps)
	}
	blob2, err := d2.CaptureFullState(eps)
	if err != nil {
		t.Fatalf("re-capture: %v", err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("restored agent re-captures to different bytes")
	}

	// Both agents must now evolve in lockstep.
	for i := 0; i < 25; i++ {
		s := []float64{float64(i % 3), 0.25, float64(i % 2)}
		a1 := d.SelectAction(s, nil)
		a2 := d2.SelectAction(s, nil)
		if a1 != a2 {
			t.Fatalf("step %d: actions diverge (%d vs %d)", i, a1, a2)
		}
		tr := Transition{
			State:     s,
			Action:    a1,
			Reward:    float64(i%5) - 2,
			NextState: []float64{float64((i + 1) % 3), 0.25, float64((i + 1) % 2)},
			Done:      i%9 == 8,
		}
		d.Observe(tr)
		d2.Observe(tr)
	}
	if !bytes.Equal(checkpointOf(t, d, 7), checkpointOf(t, d2, 7)) {
		t.Error("agents diverge after identical post-restore transitions")
	}

	if _, err := d2.RestoreFullState([]byte("garbage")); err == nil {
		t.Error("RestoreFullState accepted garbage")
	}
}
