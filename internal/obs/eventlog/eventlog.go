// Package eventlog is MobiRescue's flight recorder: an append-only,
// structured JSONL event stream recording what every pipeline layer did,
// window by window — dispatch decisions, order lifecycles, chaos faults
// and resilient fallbacks, route repairs, and RL training rounds. The
// file opens with a versioned manifest record carrying the run's full
// provenance (scenario config hash, seeds, chaos profile, worker
// counts, go version), so any log is self-describing and any two logs
// can be checked for comparability before being diffed.
//
// # Determinism contract
//
// Every record after the manifest header is byte-identical for any
// worker count, extending the repo's determinism witness from results
// to telemetry. Two rules make that hold:
//
//  1. Events never carry wall-clock readings by default. Simulated
//     time, window indices, order counts, modeled delays, and cache
//     hit/miss tallies are all functions of (scenario, seed), not of
//     scheduling. Wall-clock fields (Decide latency and shared-cache
//     snapshots) exist but are gated behind Options.Timing, which is
//     documented to break cross-run byte-identity.
//  2. Concurrent logical units (the three comparison methods, parallel
//     evaluation days) each record into a private in-memory Recorder;
//     the caller appends completed recorders to the Log in logical
//     order — run index, day index — never completion order, exactly
//     like the training pipeline's reorder buffer. Within one recorder
//     emission is single-threaded by construction (the simulator's
//     decision loop is serial).
//
// The manifest itself may differ across worker counts only in its
// informational fields (workers, train_workers, go version); the diff
// tool treats those as non-semantic.
//
// # Cost
//
// Everything is nil-safe: a nil *Log hands out nil *Recorders, and
// every method on a nil *Recorder is an allocation-free no-op, so
// instrumented hot paths pay ~zero cost when the flight recorder is
// disabled — which is the default. When enabled, events are encoded by
// a hand-rolled appender (no reflection, stable field order) into the
// recorder's private buffer without taking any lock; the Log's mutex is
// only touched once per Append.
package eventlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mobirescue/internal/obs"
)

// Version is the event-schema version recorded in the manifest. Bump it
// when an event type changes meaning or encoding.
const Version = 1

// Exported eventlog metric names (see README "Flight recorder").
const (
	MetricEvents  = "mobirescue_eventlog_events_total"
	MetricBytes   = "mobirescue_eventlog_bytes_total"
	MetricDrops   = "mobirescue_eventlog_dropped_events_total"
	MetricAppends = "mobirescue_eventlog_appends_total"
)

// Type discriminates event records.
type Type string

// Event types, one per record shape. See DESIGN "Flight recorder & run
// diffing" for the full schema table.
const (
	TypeManifest    Type = "manifest"     // header: run provenance
	TypeRunStart    Type = "run_start"    // one simulation run begins
	TypeRunEnd      Type = "run_end"      // one simulation run's outcome
	TypeWindowOpen  Type = "window_open"  // dispatch window opens
	TypeWindowClose Type = "window_close" // dispatch window closes (stats)
	TypeDecide      Type = "decide"       // one Dispatcher.Decide call
	TypeOrder       Type = "order"        // order accepted into the radio channel
	TypeOrderReject Type = "order_reject" // order rejected, with reason
	TypePickup      Type = "pickup"       // request picked up by a vehicle
	TypeDropoff     Type = "dropoff"      // passengers delivered to a hospital
	TypeFault       Type = "fault"        // chaos fault injected/applied
	TypeFallback    Type = "fallback"     // Resilient served a fallback round
	TypeReroute     Type = "reroute"      // mid-episode route repair/divert
	TypeTrainRound  Type = "train_round"  // one actor-learner training round
	TypeDeadline    Type = "deadline"     // Resilient Decide deadline expired
)

// Manifest is the header record of every event log: enough provenance
// to reproduce the run and to decide whether two logs are comparable.
// Semantic fields (schema version, scenario, config hash, seeds, chaos,
// logical actor count) define the experiment; informational fields
// (worker counts, go version, timing) are pure speed/provenance knobs
// that never change the event stream and are excluded from diff
// semantics.
type Manifest struct {
	Version int    `json:"v"`
	Scale   string `json:"scale,omitempty"`
	// ConfigHash fingerprints the full scenario configuration (FNV-64a
	// over its printed form) so "same scale name, different knobs" is
	// detectable.
	ConfigHash string `json:"config_hash,omitempty"`
	Seed       int64  `json:"seed"`
	Chaos      string `json:"chaos,omitempty"`
	ChaosSeed  int64  `json:"chaos_seed,omitempty"`
	// TrainActors is logical (changes the experiment); the worker count
	// below is physical (informational only).
	TrainActors int    `json:"train_actors,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	GoVersion   string `json:"go,omitempty"`
	// Timing records whether wall-clock fields were enabled; a timing
	// log is not byte-comparable to anything, including itself re-run.
	Timing bool `json:"timing,omitempty"`
}

// Comparable reports whether two manifests can be diffed at all, along
// with a reason when they cannot. Only a schema-version mismatch is
// fatal — records of different versions cannot be aligned. Every other
// difference still diffs: semantic deltas (seed, config, chaos — see
// SemanticDeltas) mean divergence is expected and the diff pinpoints
// the first divergent window; informational fields — worker counts, go
// version, timing — are allowed to differ with zero divergence.
func (m Manifest) Comparable(o Manifest) (bool, string) {
	if m.Version != o.Version {
		return false, fmt.Sprintf("schema version %d vs %d", m.Version, o.Version)
	}
	return true, ""
}

// SemanticDeltas describes differences in the manifest fields that
// change the experiment itself (as opposed to how fast it ran). A
// non-empty result means the two logs describe different experiments
// and divergence is expected, not a bug.
func (m Manifest) SemanticDeltas(o Manifest) string {
	s := ""
	add := func(f string) {
		if s != "" {
			s += ", "
		}
		s += f
	}
	if m.Scale != o.Scale {
		add(fmt.Sprintf("scale %q vs %q", m.Scale, o.Scale))
	}
	if m.ConfigHash != o.ConfigHash {
		add(fmt.Sprintf("config hash %s vs %s", m.ConfigHash, o.ConfigHash))
	}
	if m.Seed != o.Seed {
		add(fmt.Sprintf("seed %d vs %d", m.Seed, o.Seed))
	}
	if m.Chaos != o.Chaos {
		add(fmt.Sprintf("chaos profile %q vs %q", m.Chaos, o.Chaos))
	}
	if m.ChaosSeed != o.ChaosSeed {
		add(fmt.Sprintf("chaos seed %d vs %d", m.ChaosSeed, o.ChaosSeed))
	}
	if m.TrainActors != o.TrainActors {
		add(fmt.Sprintf("train actors %d vs %d", m.TrainActors, o.TrainActors))
	}
	return s
}

// Event is the superset record of every event type. Which fields are
// encoded is decided per Type by the deterministic appender (see
// encode.go), so zero values like vehicle 0 or window 0 are never
// ambiguous: a field either always appears for its type or never does.
type Event struct {
	Type Type      `json:"ev"`
	W    int       `json:"w,omitempty"` // 1-based dispatch window
	T    time.Time `json:"t,omitempty"` // simulated time, never wall clock

	Run    string `json:"run,omitempty"`    // logical run label
	Method string `json:"method,omitempty"` // dispatcher name
	Kind   string `json:"kind,omitempty"`   // fault kind / reject reason / reroute kind

	Vehicle int  `json:"vehicle,omitempty"`
	Request int  `json:"request,omitempty"`
	Target  int  `json:"target,omitempty"`
	ToDepot bool `json:"to_depot,omitempty"`

	Active  int `json:"active,omitempty"`  // active requests at decide
	Orders  int `json:"orders,omitempty"`  // orders kept this round
	Serving int `json:"serving,omitempty"` // serving teams
	N       int `json:"n,omitempty"`       // generic count (dropoffs, surge segments, requests)

	Served   int `json:"served,omitempty"`
	Timely   int `json:"timely,omitempty"`
	Unserved int `json:"unserved,omitempty"`

	DelayMS int64 `json:"delay_ms,omitempty"` // modeled computation delay
	DurMS   int64 `json:"dur_ms,omitempty"`   // fault/stall duration

	// Hits and Misses (decide events) are the tree-cache calls since the
	// previous decide, counted per window (see roadnet.CacheStats).
	Hits   int64 `json:"hits,omitempty"`
	Misses int64 `json:"misses,omitempty"`

	Round       int     `json:"round,omitempty"`
	Episodes    int     `json:"episodes,omitempty"`
	Transitions int     `json:"transitions,omitempty"`
	Reward      float64 `json:"reward,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Loss        float64 `json:"loss,omitempty"`

	// LatencyNS is the only wall-clock field: Dispatcher.Decide latency
	// in nanoseconds. It is encoded only when the log runs in timing
	// mode and is always ignored by the diff tool.
	LatencyNS int64 `json:"latency_ns,omitempty"`
}

// Options tunes a Log.
type Options struct {
	// Timing includes wall-clock fields (Decide latency, shared-cache
	// snapshots) in the stream. It breaks byte-identity across runs and
	// is recorded in the manifest so diff can refuse gracefully.
	Timing bool
	// MaxRecorderBytes caps one recorder's in-memory buffer; events past
	// the cap are dropped and counted (never silently). 0 means the
	// 256 MiB default — far above any in-repo scenario, a backstop
	// against a runaway emitter, not a tuning knob.
	MaxRecorderBytes int
}

const defaultMaxRecorderBytes = 256 << 20

// Log owns one event-log output. Construct with New or Create; emit
// through Recorders; Close flushes. A nil *Log is a valid "disabled"
// log: it hands out nil Recorders and every method is a no-op.
type Log struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	file   *os.File // non-nil when the log owns a file (Create/OpenAppend)
	opts   Options

	events  atomic.Int64
	bytes   atomic.Int64
	drops   atomic.Int64
	appends atomic.Int64

	metEvents  *obs.Counter
	metBytes   *obs.Counter
	metDrops   *obs.Counter
	metAppends *obs.Counter

	err error // first write error, sticky
}

// New writes the manifest header for m to w and returns a Log appending
// to it. The manifest's Version and Timing fields are overwritten from
// the schema constant and opts.
func New(w io.Writer, m Manifest, opts Options) (*Log, error) {
	if w == nil {
		return nil, fmt.Errorf("eventlog: writer required")
	}
	if opts.MaxRecorderBytes <= 0 {
		opts.MaxRecorderBytes = defaultMaxRecorderBytes
	}
	m.Version = Version
	m.Timing = opts.Timing
	l := &Log{w: bufio.NewWriterSize(w, 64<<10), opts: opts}
	header := appendManifest(nil, &m)
	if _, err := l.w.Write(header); err != nil {
		return nil, fmt.Errorf("eventlog: writing manifest: %w", err)
	}
	// Flush the header immediately so Offset (the durability cursor)
	// equals the on-disk length from the very first record.
	if err := l.w.Flush(); err != nil {
		return nil, fmt.Errorf("eventlog: flushing manifest: %w", err)
	}
	l.bytes.Add(int64(len(header)))
	return l, nil
}

// Create creates (truncating) the file at path and returns a Log over
// it; Close also closes the file.
func Create(path string, m Manifest, opts Options) (*Log, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	l, err := New(f, m, opts)
	if err != nil {
		f.Close()
		return nil, err
	}
	l.closer = f
	l.file = f
	return l, nil
}

// OpenAppend reopens an existing event log for appending after a crash
// or graceful stop, truncating it to offset bytes first (discarding any
// events written after the durability cursor was captured, including a
// torn final line) and restoring the cumulative event counter. The
// manifest already in the file is validated but not rewritten; its
// Timing flag carries over. Close also closes the file.
func OpenAppend(path string, offset, events int64, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	header, m, err := readManifestHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if offset < int64(header) {
		f.Close()
		return nil, fmt.Errorf("eventlog: resume offset %d inside the %d-byte manifest header", offset, header)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	if offset > size {
		f.Close()
		return nil, fmt.Errorf("eventlog: resume offset %d beyond file size %d", offset, size)
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("eventlog: truncating to resume offset: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("eventlog: %w", err)
	}
	if opts.MaxRecorderBytes <= 0 {
		opts.MaxRecorderBytes = defaultMaxRecorderBytes
	}
	opts.Timing = m.Timing
	l := &Log{w: bufio.NewWriterSize(f, 64<<10), closer: f, file: f, opts: opts}
	l.bytes.Store(offset)
	l.events.Store(events)
	return l, nil
}

// readManifestHeader reads and validates the manifest line at the start
// of f, returning its length in bytes (newline included).
func readManifestHeader(f *os.File) (int, Manifest, error) {
	br := bufio.NewReaderSize(f, 64<<10)
	raw, err := br.ReadString('\n')
	if err != nil {
		return 0, Manifest{}, fmt.Errorf("eventlog: reading manifest: %w", err)
	}
	var m manifestLine
	if err := json.Unmarshal([]byte(raw), &m); err != nil {
		return 0, Manifest{}, fmt.Errorf("eventlog: parsing manifest: %w", err)
	}
	if m.EV != string(TypeManifest) {
		return 0, Manifest{}, fmt.Errorf("eventlog: first record is %q, want manifest", m.EV)
	}
	if m.Version > Version {
		return 0, Manifest{}, fmt.Errorf("eventlog: schema version %d newer than supported %d", m.Version, Version)
	}
	return len(raw), m.Manifest, nil
}

// Timing reports whether wall-clock fields are enabled. Nil-safe
// (false), so emission sites can skip time.Now entirely when disabled.
func (l *Log) Timing() bool { return l != nil && l.opts.Timing }

// EnableMetrics publishes the log's byte/event/drop counters on reg. A
// nil registry (or log) is a no-op.
func (l *Log) EnableMetrics(reg *obs.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.metEvents = reg.Counter(MetricEvents, "Events appended to the flight-recorder log.")
	l.metBytes = reg.Counter(MetricBytes, "Bytes written to the flight-recorder log.")
	l.metDrops = reg.Counter(MetricDrops, "Events dropped by a recorder buffer cap.")
	l.metAppends = reg.Counter(MetricAppends, "Recorder buffers appended to the log.")
	// Surface what was counted before registration (the header).
	l.metBytes.Add(l.bytes.Load())
}

// Stats returns cumulative (events, bytes, drops) for the log. Nil-safe.
func (l *Log) Stats() (events, bytes, drops int64) {
	if l == nil {
		return 0, 0, 0
	}
	return l.events.Load(), l.bytes.Load(), l.drops.Load()
}

// Recorder returns a new private in-memory recorder for one logical
// unit (a simulation run, a training session) labeled run. Emission is
// lock-free; nothing reaches the log until Append. On a nil log it
// returns a nil (no-op) recorder.
func (l *Log) Recorder(run string) *Recorder {
	if l == nil {
		return nil
	}
	return &Recorder{log: l, run: run}
}

// Append flushes a recorder's buffer to the log in one locked write and
// resets the recorder. Callers running recorders concurrently must call
// Append in logical order — that ordering is what makes the stream
// byte-identical for any worker count. Nil-safe in both receiver and
// argument.
func (l *Log) Append(r *Recorder) {
	if l == nil || r == nil || len(r.buf) == 0 {
		if l != nil && r != nil {
			l.finishAppend(r)
		}
		return
	}
	l.mu.Lock()
	if l.err == nil && l.w != nil {
		if _, err := l.w.Write(r.buf); err != nil {
			l.err = fmt.Errorf("eventlog: append: %w", err)
		} else if err := l.w.Flush(); err != nil {
			l.err = fmt.Errorf("eventlog: flush: %w", err)
		}
	}
	l.mu.Unlock()
	l.bytes.Add(int64(len(r.buf)))
	l.events.Add(int64(r.n))
	l.metBytes.Add(int64(len(r.buf)))
	l.metEvents.Add(int64(r.n))
	l.finishAppend(r)
}

// finishAppend accounts drops and resets the recorder for reuse.
func (l *Log) finishAppend(r *Recorder) {
	l.drops.Add(r.dropped)
	l.metDrops.Add(r.dropped)
	l.appends.Add(1)
	l.metAppends.Inc()
	r.buf, r.n, r.dropped = nil, 0, 0
}

// Sync flushes buffered output and, when the log owns a file, fsyncs
// it. Snapshot hooks call it at window boundaries so the durability
// cursor (Offset) always refers to bytes that are actually on disk.
// Nil-safe.
func (l *Log) Sync() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			if l.err == nil {
				l.err = fmt.Errorf("eventlog: sync flush: %w", err)
			}
			return l.err
		}
	}
	if l.file != nil {
		if err := l.file.Sync(); err != nil {
			if l.err == nil {
				l.err = fmt.Errorf("eventlog: fsync: %w", err)
			}
			return l.err
		}
	}
	return l.err
}

// Offset returns the durability cursor: the byte length of everything
// appended so far (header included). After a Sync it equals the on-disk
// file length, which is what snapshots record so a resumed run can
// truncate away any events the crashed process wrote afterwards.
// Nil-safe.
func (l *Log) Offset() int64 {
	if l == nil {
		return 0
	}
	return l.bytes.Load()
}

// Events returns the cumulative appended-event count (the counterpart
// of Offset for the resume manifest). Nil-safe.
func (l *Log) Events() int64 {
	if l == nil {
		return 0
	}
	return l.events.Load()
}

// Close flushes buffered output and closes the underlying file when the
// log owns one. Nil-safe.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.w != nil {
		err = l.w.Flush()
		l.w = nil
	}
	if l.closer != nil {
		if cerr := l.closer.Close(); err == nil {
			err = cerr
		}
		l.closer = nil
		l.file = nil
	}
	if l.err != nil {
		return l.err
	}
	return err
}

// Recorder accumulates encoded events for one logical unit. It is NOT
// safe for concurrent use — one recorder belongs to one single-threaded
// emitter (the simulator loop, the training learner); concurrency comes
// from multiple recorders appended in logical order. A nil *Recorder is
// a valid no-op emitter: every method returns immediately without
// allocating.
type Recorder struct {
	log     *Log
	run     string
	buf     []byte
	n       int
	dropped int64
	window  int
}

// Run returns the recorder's run label. Nil-safe.
func (r *Recorder) Run() string {
	if r == nil {
		return ""
	}
	return r.run
}

// SetWindow stamps subsequent events (emitted with W == 0) with the
// given 1-based window index. The simulator calls it once per dispatch
// round; nested layers (Resilient, chaos) then emit without knowing the
// window. Nil-safe.
func (r *Recorder) SetWindow(w int) {
	if r == nil {
		return
	}
	r.window = w
}

// Timing reports whether the destination log records wall-clock fields.
// Nil-safe (false), letting emission sites skip time.Now when off.
func (r *Recorder) Timing() bool { return r != nil && r.log.Timing() }

// RecorderState is a Recorder's complete serializable state: the
// not-yet-appended buffer plus counters and window stamp. Snapshots
// capture it so a resumed run re-creates the recorder mid-run exactly —
// buffered events survive the crash, events emitted after the snapshot
// are re-executed, not replayed.
type RecorderState struct {
	Run     string
	Buf     []byte
	N       int
	Dropped int64
	Window  int
}

// CaptureState snapshots the recorder's buffered-but-unappended state.
// Nil-safe (zero state).
func (r *Recorder) CaptureState() RecorderState {
	if r == nil {
		return RecorderState{}
	}
	return RecorderState{
		Run:     r.run,
		Buf:     append([]byte(nil), r.buf...),
		N:       r.n,
		Dropped: r.dropped,
		Window:  r.window,
	}
}

// RestoreState overwrites the recorder's buffer and counters from a
// captured state. The run label is NOT overwritten — the recorder's
// identity comes from its constructor. Nil-safe.
func (r *Recorder) RestoreState(s RecorderState) {
	if r == nil {
		return
	}
	r.buf = append([]byte(nil), s.Buf...)
	r.n = s.N
	r.dropped = s.Dropped
	r.window = s.Window
}

// Emit encodes one event into the recorder's buffer. Events with W == 0
// are stamped with the current SetWindow value; wall-clock fields are
// zeroed unless the log runs in timing mode. A nil recorder ignores the
// call without allocating — the disabled hot path is one nil check.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	if r.dropped > 0 || len(r.buf) >= r.log.opts.MaxRecorderBytes {
		// Once over the cap, drop everything after: a partial tail is
		// more misleading than a counted truncation.
		r.dropped++
		return
	}
	if e.W == 0 {
		e.W = r.window
	}
	if !r.log.opts.Timing {
		e.LatencyNS = 0
	}
	r.buf = appendEvent(r.buf, &e)
	r.n++
}
