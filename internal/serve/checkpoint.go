package serve

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"mobirescue/internal/atomicfile"
	"mobirescue/internal/nn"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/sim"
)

// CheckpointVersion is the serve checkpoint payload version carried in
// the nn envelope header (the same versioned CRC-32 envelope the
// training checkpoints and run snapshots use).
//
// v2: the simulator and dispatcher state blobs encode their maps as
// key-sorted slices (snapshot.Version 3), so a drain of one state
// always writes the same bytes; a v1 checkpoint no longer decodes.
const CheckpointVersion uint32 = 2

// sessionState is one live session's complete captured state.
type sessionState struct {
	ID        string
	Seq       int
	Spec      SessionSpec
	BaseReqs  int
	NextReqID int
	// Injected replays the streamed requests into the rebuilt simulator
	// before RestoreState, so the restored request table matches the
	// captured one in length (the blob itself carries the outcomes).
	Injected []sim.Request
	// Sim is the simulator's CaptureState blob — valid because a
	// quiesced worker always sits at a dispatch-window boundary (or at
	// the end of the run).
	Sim []byte
	// Rec is the session's not-yet-appended event-recorder buffer; the
	// restored session keeps emitting into the same stream.
	Rec eventlog.RecorderState
}

// serverState is the whole service's drain checkpoint.
type serverState struct {
	Seq      int
	Sessions []sessionState
}

// Drain quiesces every session at a window boundary, captures the full
// service state, and atomically writes it to path. The service rejects
// all new work from the first moment of the drain; it is terminal —
// restart the process and Restore to continue. Sessions stay queryable
// (their last status) but cannot advance.
func (s *Service) Drain(path string) error {
	s.mu.Lock()
	s.draining = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	seq := s.seq
	s.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].seq < sessions[j].seq })

	state := serverState{Seq: seq}
	for _, sess := range sessions {
		sess.stop() // blocks until queued commands drain and the worker exits
		blob, err := sess.sim.CaptureState()
		if err != nil {
			return fmt.Errorf("serve: capturing session %s: %w", sess.id, err)
		}
		state.Sessions = append(state.Sessions, sessionState{
			ID:        sess.id,
			Seq:       sess.seq,
			Spec:      sess.spec,
			BaseReqs:  sess.baseReqs,
			NextReqID: sess.nextReqID,
			Injected:  sess.injected,
			Sim:       blob,
			Rec:       sess.rec.CaptureState(),
		})
	}

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&state); err != nil {
		return fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return nn.WriteEnvelope(w, nn.EnvelopeHeader{Version: CheckpointVersion}, payload.Bytes())
	})
}

// Draining reports whether Drain has started.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Restore rebuilds every session from a Drain checkpoint into this
// (fresh, empty) service: simulator state, streamed requests, and
// event-recorder buffers all resume exactly where the drained process
// stopped — the continued run is byte-identical to one that never
// drained. All-validate-then-commit: on any error the service is left
// unchanged.
func (s *Service) Restore(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: opening checkpoint: %w", err)
	}
	defer f.Close()
	_, payload, err := nn.ReadEnvelope(f, CheckpointVersion)
	if err != nil {
		return fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	var state serverState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&state); err != nil {
		return fmt.Errorf("serve: decoding checkpoint: %w", err)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	if len(s.sessions) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("serve: restore into a non-empty service (%d sessions)", len(s.sessions))
	}
	s.mu.Unlock()

	rebuilt := make([]*Session, 0, len(state.Sessions))
	for _, st := range state.Sessions {
		rec := s.log.Recorder(st.ID)
		simulator, baseReqs, err := s.world.NewSessionSim(st.Spec, rec)
		if err != nil {
			return fmt.Errorf("serve: rebuilding session %s: %w", st.ID, err)
		}
		if baseReqs != st.BaseReqs {
			return fmt.Errorf("serve: session %s world mismatch: %d ground-truth requests, checkpoint has %d", st.ID, baseReqs, st.BaseReqs)
		}
		if len(st.Injected) > 0 {
			if err := simulator.InjectRequests(st.Injected); err != nil {
				return fmt.Errorf("serve: re-injecting session %s requests: %w", st.ID, err)
			}
		}
		if err := simulator.RestoreState(st.Sim); err != nil {
			return fmt.Errorf("serve: restoring session %s: %w", st.ID, err)
		}
		rec.RestoreState(st.Rec)
		sess := newSession(s, st.ID, st.Seq, st.Spec, simulator, rec, st.BaseReqs)
		sess.nextReqID = st.NextReqID
		sess.injected = st.Injected
		sess.setStatus(sess.freshStatus())
		rebuilt = append(rebuilt, sess)
	}

	s.mu.Lock()
	if s.draining || len(s.sessions) != 0 {
		s.mu.Unlock()
		return fmt.Errorf("serve: service changed during restore")
	}
	s.seq = state.Seq
	for _, sess := range rebuilt {
		s.sessions[sess.id] = sess
	}
	n := len(s.sessions)
	s.mu.Unlock()
	for _, sess := range rebuilt {
		go sess.run()
	}
	s.metSessions.Set(float64(n))
	return nil
}
