// Package snapshot provides full-run durability for MobiRescue: the
// complete simulation/training state — request queues, vehicle and
// order state, RL policy and trainer progress, RNG states, dispatcher
// chain state, and the flight-recorder cursor — serialized into the
// versioned CRC-32 checkpoint envelope (internal/nn) and installed
// atomically (internal/atomicfile) at window boundaries.
//
// The durability contract is exact resume: a run killed at any point
// and restarted with -resume replays from the latest valid snapshot and
// produces a byte-identical event log to an uninterrupted run. Two
// mechanisms make that hold:
//
//  1. All-validate-then-commit. A snapshot file is either fully decoded
//     and checksum-verified or rejected with a typed error; Latest
//     walks newest→oldest and falls back to the previous valid file on
//     a torn or corrupt one, so a crash mid-install (already prevented
//     by atomic rename) or disk corruption costs at most one window of
//     progress, never the run.
//  2. Truncate-and-re-execute. The snapshot records the eventlog's
//     durability cursor (offset + event count at capture time). Resume
//     truncates the log back to that cursor and re-executes forward, so
//     anything the crashed process wrote after the snapshot — including
//     a torn final line — is discarded and deterministically recreated.
package snapshot

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"mobirescue/internal/atomicfile"
	"mobirescue/internal/nn"
	"mobirescue/internal/obs/eventlog"
)

// Version is the snapshot payload format version carried in the
// envelope header. Bump on any RunState wire change.
//
// v2: simWire gained Started/Finished run-lifecycle flags (PR-9
// incremental Advance); a v1 blob restored under v2 would re-emit
// run_start, breaking resume byte-identity.
//
// v3: the simulator's active-request table, MobiRescue's target
// assignments and the time-series predictor's history travel as
// key-sorted slices instead of gob maps, so two runs of one build write
// byte-identical snapshot files; a v2 blob no longer decodes.
const Version = 3

// DefaultKeep is how many snapshot generations Manager retains when the
// caller passes keep <= 0. Two generations is the minimum that survives
// "latest is corrupt": the previous one is still there.
const DefaultKeep = 3

// ErrStopRequested is returned by window hooks to abort a run cleanly
// after a graceful-shutdown signal: the current window is complete, the
// eventlog is flushed, and a final snapshot is installed. Callers match
// it with errors.Is and exit with a distinct code.
var ErrStopRequested = errors.New("snapshot: stop requested")

// ErrNoSnapshot reports that a directory holds no valid snapshot.
var ErrNoSnapshot = errors.New("snapshot: no valid snapshot found")

// MismatchError reports a snapshot that belongs to a different
// experiment than the resuming run (config hash, seed, or method
// changed between invocations).
type MismatchError struct {
	Field      string
	Have, Want string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("snapshot: %s mismatch: snapshot has %s, run has %s", e.Field, e.Have, e.Want)
}

// Phase labels for RunState.Phase.
const (
	PhaseTrain   = "train"   // mid-training: LearnerState + trainer progress
	PhaseTrained = "trained" // training complete, evaluation not started
	PhaseEval    = "eval"    // mid-evaluation: SimState + window
	PhaseDone    = "done"    // run complete (final graceful-stop snapshot)
)

// RunState is the complete serializable state of one run at a window
// (or training-round) boundary. Layer-specific state travels as opaque
// blobs captured by that layer's own codec — the snapshot package knows
// the shape of the run, not the shape of a vehicle.
type RunState struct {
	// Identity: must match the resuming invocation exactly.
	ConfigHash string
	Seed       int64
	Method     string
	Scale      string

	// Phase says which half of the pipeline the snapshot was taken in.
	Phase string

	// Training progress (PhaseTrain / PhaseTrained).
	TrainRounds     int       // completed actor-learner rounds
	TrainEpisodes   uint64    // episodes absorbed by the learner
	TrainRewards    []float64 // per-episode returns so far
	LearnerState    []byte    // full learner state (policy + optimizer + replay)
	TrainRecorder   eventlog.RecorderState
	TrainedEpisodes uint64 // final episode count once PhaseTrained+

	// Evaluation progress (PhaseEval).
	Window       int    // completed dispatch windows
	SimState     []byte // simulator + dispatcher-chain state
	EvalRecorder eventlog.RecorderState

	// Flight-recorder durability cursor at capture time.
	LogOffset int64
	LogEvents int64
}

// Validate checks a restored snapshot against the resuming run's
// identity, returning a *MismatchError on the first difference.
func (st *RunState) Validate(configHash string, seed int64, method string) error {
	if st.ConfigHash != configHash {
		return &MismatchError{Field: "config hash", Have: st.ConfigHash, Want: configHash}
	}
	if st.Seed != seed {
		return &MismatchError{Field: "seed", Have: fmt.Sprint(st.Seed), Want: fmt.Sprint(seed)}
	}
	if st.Method != method {
		return &MismatchError{Field: "method", Have: st.Method, Want: method}
	}
	return nil
}

// Encode writes the state as a versioned, checksummed envelope.
func (st *RunState) Encode(w io.Writer) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("snapshot: encoding state: %w", err)
	}
	return nn.WriteEnvelope(w, nn.EnvelopeHeader{Version: Version, Episodes: st.TrainEpisodes}, buf.Bytes())
}

// Decode reads a state written by Encode, rejecting truncated, corrupt,
// or wrong-version streams with the envelope's typed errors. Nothing is
// returned unless the whole payload validated.
func Decode(r io.Reader) (*RunState, error) {
	_, payload, err := nn.ReadEnvelope(r, Version)
	if err != nil {
		return nil, err
	}
	var st RunState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("snapshot: decoding state: %w", err)
	}
	return &st, nil
}

// snapPrefix/snapExt name snapshot files snap-00000042.mrsnap; the
// sequence number gives a total order without trusting mtimes.
const (
	snapPrefix = "snap-"
	snapExt    = ".mrsnap"
)

func snapName(seq int) string { return fmt.Sprintf("%s%08d%s", snapPrefix, seq, snapExt) }

// snapSeq parses the sequence number out of a snapshot file name,
// returning ok=false for anything that isn't one.
func snapSeq(name string) (int, bool) {
	if len(name) != len(snapPrefix)+8+len(snapExt) ||
		name[:len(snapPrefix)] != snapPrefix ||
		name[len(name)-len(snapExt):] != snapExt {
		return 0, false
	}
	seq, err := strconv.Atoi(name[len(snapPrefix) : len(snapPrefix)+8])
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// Manager installs numbered snapshots into a directory, keeping the
// last K generations. It is used by a single writer goroutine (the run
// loop's window hook); it is not concurrency-safe.
type Manager struct {
	dir  string
	keep int
	seq  int // next sequence number to write
}

// NewManager creates dir if needed and positions the sequence counter
// after any snapshots already present (a resumed run keeps numbering
// where the crashed one stopped).
func NewManager(dir string, keep int) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("snapshot: directory required")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	m := &Manager{dir: dir, keep: keep}
	for _, seq := range listSeqs(dir) {
		if seq >= m.seq {
			m.seq = seq + 1
		}
	}
	return m, nil
}

// Install writes st as the next snapshot generation — atomic temp +
// fsync + rename, so a crash mid-install never damages an existing
// file — and prunes generations beyond the keep limit. It returns the
// installed path.
func (m *Manager) Install(st *RunState) (string, error) {
	path := filepath.Join(m.dir, snapName(m.seq))
	if err := atomicfile.WriteFile(path, st.Encode); err != nil {
		return "", err
	}
	m.seq++
	m.prune()
	return path, nil
}

// prune removes the oldest generations beyond the keep limit. Removal
// errors are ignored — an unremovable old snapshot is harmless.
func (m *Manager) prune() {
	seqs := listSeqs(m.dir)
	if len(seqs) <= m.keep {
		return
	}
	for _, seq := range seqs[:len(seqs)-m.keep] {
		os.Remove(filepath.Join(m.dir, snapName(seq)))
	}
}

// listSeqs returns the snapshot sequence numbers in dir, ascending.
func listSeqs(dir string) []int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var seqs []int
	for _, e := range entries {
		if seq, ok := snapSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs
}

// Latest loads the newest valid snapshot in dir, walking newest→oldest
// and skipping torn or corrupt files (truncation, bit flips, wrong
// version — any typed envelope or decode error) so the run falls back
// to the previous generation instead of failing. It returns
// ErrNoSnapshot when the directory has no loadable snapshot at all; the
// skipped map (path → reason) reports anything that was passed over.
func Latest(dir string) (st *RunState, path string, skipped map[string]error, err error) {
	seqs := listSeqs(dir)
	skipped = map[string]error{}
	for i := len(seqs) - 1; i >= 0; i-- {
		p := filepath.Join(dir, snapName(seqs[i]))
		s, derr := decodeFile(p)
		if derr != nil {
			skipped[p] = derr
			continue
		}
		return s, p, skipped, nil
	}
	return nil, "", skipped, ErrNoSnapshot
}

func decodeFile(path string) (*RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
