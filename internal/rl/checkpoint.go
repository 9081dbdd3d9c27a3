package rl

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"mobirescue/internal/nn"
)

// CheckpointVersion is the current learner-checkpoint payload format.
// Bump it whenever dqnCheckpointWire changes incompatibly; old files are
// then rejected with *nn.VersionError instead of being misdecoded.
const CheckpointVersion = 1

// dqnCheckpointWire is the gob payload inside the nn checkpoint envelope.
// Everything that determines the learner's decisions is here — online and
// target networks, optimizer moments, step counters, and the RNG cursor —
// so a restored agent selects exactly the actions the saved one would
// have. The replay buffer is deliberately excluded: it is tens of
// thousands of state vectors, and warm-starting refills it from fresh
// experience (so resumed *learning* samples new batches rather than
// replaying the pre-crash buffer).
type dqnCheckpointWire struct {
	Online       []byte // nn.Network gob (Save format)
	TargetParams []float64
	AdamM, AdamV []float64
	AdamT        int
	Steps        int
	LearnN       int
	RNGState     uint64
}

// SaveCheckpoint writes the learner's full training state (networks,
// optimizer, counters, RNG cursor) to w inside a versioned, checksummed
// envelope (see internal/nn persist.go). episodes is recorded in the
// header so tools and warm-starting callers can see how much training the
// checkpoint represents without decoding the payload.
//
// Identical learner states always serialize to identical bytes, which is
// the contract the parallel-training determinism tests pin.
func (d *DQN) SaveCheckpoint(w io.Writer, episodes uint64) error {
	var net bytes.Buffer
	if err := d.online.Save(&net); err != nil {
		return err
	}
	m, v, t := d.opt.State()
	wire := dqnCheckpointWire{
		Online:       net.Bytes(),
		TargetParams: append([]float64(nil), d.target.Params()...),
		AdamM:        m,
		AdamV:        v,
		AdamT:        t,
		Steps:        d.steps,
		LearnN:       d.learnN,
		RNGState:     d.rng.State(),
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		return fmt.Errorf("rl: encoding checkpoint: %w", err)
	}
	return nn.WriteEnvelope(w, nn.EnvelopeHeader{
		Version:  CheckpointVersion,
		Episodes: episodes,
	}, payload.Bytes())
}

// LoadCheckpoint restores a learner state written by SaveCheckpoint,
// returning the episode count recorded in the header. Corrupt, truncated,
// wrong-version, or shape-mismatched files are rejected with an error —
// the typed envelope errors from internal/nn where applicable — and the
// agent is left untouched: all validation happens before any field is
// assigned, so a failed load can never leave a partially restored
// network.
func (d *DQN) LoadCheckpoint(r io.Reader) (episodes uint64, err error) {
	hdr, payload, err := nn.ReadEnvelope(r, CheckpointVersion)
	if err != nil {
		return 0, err
	}
	var wire dqnCheckpointWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return 0, fmt.Errorf("rl: decoding checkpoint: %w", err)
	}
	online, err := nn.Load(bytes.NewReader(wire.Online))
	if err != nil {
		return 0, err
	}
	if online.InputSize() != d.online.InputSize() || online.OutputSize() != d.online.OutputSize() {
		return 0, fmt.Errorf("rl: checkpoint network shape %dx%d does not match agent %dx%d",
			online.InputSize(), online.OutputSize(), d.online.InputSize(), d.online.OutputSize())
	}
	if len(wire.TargetParams) != online.NumParams() {
		return 0, fmt.Errorf("rl: checkpoint target has %d params, want %d",
			len(wire.TargetParams), online.NumParams())
	}
	if len(wire.AdamM) != len(wire.AdamV) {
		return 0, fmt.Errorf("rl: checkpoint optimizer moments disagree: %d m, %d v",
			len(wire.AdamM), len(wire.AdamV))
	}
	if len(wire.AdamM) != 0 && len(wire.AdamM) != online.NumParams() {
		return 0, fmt.Errorf("rl: checkpoint optimizer has %d moments, want %d",
			len(wire.AdamM), online.NumParams())
	}
	if wire.Steps < 0 || wire.LearnN < 0 || wire.AdamT < 0 {
		return 0, fmt.Errorf("rl: checkpoint counters negative (steps=%d learn=%d adamT=%d)",
			wire.Steps, wire.LearnN, wire.AdamT)
	}
	target := online.Clone()
	target.SetParams(wire.TargetParams)
	opt := nn.NewAdam(d.cfg.LR)
	if err := opt.SetState(wire.AdamM, wire.AdamV, wire.AdamT); err != nil {
		return 0, err
	}
	// All validation passed; commit atomically.
	d.setNetworks(online, target)
	d.opt = opt
	d.steps = wire.Steps
	d.learnN = wire.LearnN
	d.rng.SetState(wire.RNGState)
	return hdr.Episodes, nil
}
