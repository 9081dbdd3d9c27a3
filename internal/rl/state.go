package rl

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Full-state capture for crash-safe snapshots (internal/snapshot).
// SaveCheckpoint deliberately excludes the replay buffer — warm-starting
// refills it from fresh experience — but exact resume cannot: a resumed
// learner must sample the very same minibatches the uninterrupted run
// would have, so the full state is the checkpoint plus the replay ring
// (positions included) and the last reported loss.

// dqnFullWire wraps the regular checkpoint with the replay ring buffer.
type dqnFullWire struct {
	Checkpoint []byte // SaveCheckpoint envelope (networks, Adam, counters, RNG)
	ReplayCap  int
	ReplayNext int
	ReplayFull bool
	ReplayBuf  []Transition // used entries: all when full, [0,next) otherwise
	LastLoss   float64
}

// CaptureFullState serializes everything RestoreFullState needs to
// continue training byte-identically: the full checkpoint plus replay
// buffer contents and the last minibatch loss. episodes is recorded in
// the embedded checkpoint header.
func (d *DQN) CaptureFullState(episodes uint64) ([]byte, error) {
	var ckpt bytes.Buffer
	if err := d.SaveCheckpoint(&ckpt, episodes); err != nil {
		return nil, err
	}
	wire := dqnFullWire{
		Checkpoint: ckpt.Bytes(),
		ReplayCap:  d.replay.Cap(),
		ReplayNext: d.replay.next,
		ReplayFull: d.replay.full,
		ReplayBuf:  d.replay.buf,
		LastLoss:   d.lastLoss,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire); err != nil {
		return nil, fmt.Errorf("rl: encoding full state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreFullState rebuilds the learner from a CaptureFullState blob,
// returning the episode count from the embedded checkpoint header. All
// validation — replay-ring invariants and the checkpoint's own shape
// checks — happens before anything is committed, so a failed restore
// leaves the agent untouched.
func (d *DQN) RestoreFullState(blob []byte) (episodes uint64, err error) {
	var wire dqnFullWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&wire); err != nil {
		return 0, fmt.Errorf("rl: decoding full state: %w", err)
	}
	if wire.ReplayCap != d.replay.Cap() {
		return 0, fmt.Errorf("rl: snapshot replay capacity %d, agent has %d", wire.ReplayCap, d.replay.Cap())
	}
	if wire.ReplayNext < 0 || wire.ReplayNext >= wire.ReplayCap {
		return 0, fmt.Errorf("rl: snapshot replay cursor %d out of range", wire.ReplayNext)
	}
	want := wire.ReplayNext
	if wire.ReplayFull {
		want = wire.ReplayCap
	}
	if len(wire.ReplayBuf) != want {
		return 0, fmt.Errorf("rl: snapshot replay has %d entries, want %d", len(wire.ReplayBuf), want)
	}
	// LoadCheckpoint is itself all-validate-then-commit; if it fails,
	// nothing (including the replay) has been touched.
	episodes, err = d.LoadCheckpoint(bytes.NewReader(wire.Checkpoint))
	if err != nil {
		return 0, err
	}
	d.replay.buf = make([]Transition, len(wire.ReplayBuf))
	copy(d.replay.buf, wire.ReplayBuf)
	d.replay.next = wire.ReplayNext
	d.replay.full = wire.ReplayFull
	d.lastLoss = wire.LastLoss
	return episodes, nil
}
