package dispatch

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// Exported resilience metric names (see README "Resilience & chaos
// testing"). Per-method series carry a method="..." label; dropped
// orders carry an additional reason="..." label.
const (
	MetricResilientPanics     = "mobirescue_resilient_panics_recovered_total"
	MetricResilientTimeouts   = "mobirescue_resilient_timeouts_total"
	MetricResilientFallbacks  = "mobirescue_resilient_fallback_rounds_total"
	MetricResilientRecoveries = "mobirescue_resilient_primary_recoveries_total"
	MetricResilientDropped    = "mobirescue_resilient_orders_dropped_total"
	MetricResilientRemapped   = "mobirescue_resilient_orders_remapped_total"
)

// ResilientConfig tunes the Resilient wrapper.
type ResilientConfig struct {
	// DecideTimeout bounds one wall-clock Decide call on the primary.
	// The default (5 s) is generous for every in-repo dispatcher, so it
	// only fires on a genuinely wedged primary; modeled computation
	// delays (the paper's IP solve time) are unaffected.
	DecideTimeout time.Duration
	// MaxFailures is how many consecutive primary failures (panic,
	// timeout, still-running call) trigger the fallback backoff.
	MaxFailures int
	// BackoffRounds is the initial number of rounds the primary is
	// benched after tripping; it doubles on each re-trip up to
	// MaxBackoffRounds.
	BackoffRounds    int
	MaxBackoffRounds int
	// Fallback is the degraded-mode policy (default: Greedy).
	Fallback sim.Dispatcher
}

// DefaultResilientConfig returns the defaults described above.
func DefaultResilientConfig() ResilientConfig {
	return ResilientConfig{
		DecideTimeout:    5 * time.Second,
		MaxFailures:      3,
		BackoffRounds:    1,
		MaxBackoffRounds: 8,
		Fallback:         NewGreedy(),
	}
}

// resilientMetrics holds the wrapper's nil-safe counter handles.
type resilientMetrics struct {
	panics     *obs.Counter
	timeouts   *obs.Counter
	fallbacks  *obs.Counter
	recoveries *obs.Counter
	dropClosed *obs.Counter
	remapped   *obs.Counter
}

// decideResult carries one primary Decide outcome across the goroutine
// boundary.
type decideResult struct {
	orders []sim.Order
	delay  time.Duration
	err    error
	kind   string // failure kind for the flight recorder: "panic"/"timeout"
}

// Resilient hardens any sim.Dispatcher: it recovers injected or
// accidental panics in Decide, bounds each call with a wall-clock
// deadline, remaps or drops the returned orders that target
// flood-closed roads (see Sanitize), and after MaxFailures consecutive
// primary failures serves rounds from a cheap Greedy fallback, retrying
// the primary with exponential backoff. Every event is counted through
// internal/obs when EnableMetrics is called.
//
// Decide is not safe for concurrent use — like every dispatcher in this
// repo it is driven by the single-threaded simulator. When a primary
// call outlives its deadline, the wrapper keeps serving fallback rounds
// until that call returns (its stale result is discarded), so the
// primary itself never sees concurrent Decide calls either.
type Resilient struct {
	primary sim.Dispatcher
	cfg     ResilientConfig
	met     resilientMetrics
	ev      *eventlog.Recorder

	failures int               // consecutive primary failures
	skip     int               // fallback-only rounds remaining
	backoff  int               // current backoff length in rounds
	inflight chan decideResult // non-nil while a timed-out call runs
	lastErr  error             // most recent primary failure
}

var _ sim.Dispatcher = (*Resilient)(nil)

// NewResilient wraps primary. Zero-valued cfg fields take the defaults
// from DefaultResilientConfig.
func NewResilient(primary sim.Dispatcher, cfg ResilientConfig) *Resilient {
	def := DefaultResilientConfig()
	if cfg.DecideTimeout <= 0 {
		cfg.DecideTimeout = def.DecideTimeout
	}
	if cfg.MaxFailures <= 0 {
		cfg.MaxFailures = def.MaxFailures
	}
	if cfg.BackoffRounds <= 0 {
		cfg.BackoffRounds = def.BackoffRounds
	}
	if cfg.MaxBackoffRounds < cfg.BackoffRounds {
		cfg.MaxBackoffRounds = def.MaxBackoffRounds
	}
	if cfg.Fallback == nil {
		cfg.Fallback = def.Fallback
	}
	return &Resilient{primary: primary, cfg: cfg, backoff: cfg.BackoffRounds}
}

// Name implements sim.Dispatcher: results stay keyed by the primary
// method's name even while degraded.
func (r *Resilient) Name() string { return r.primary.Name() }

// LastError returns the most recent primary failure (nil when the
// primary has never failed or has recovered).
func (r *Resilient) LastError() error { return r.lastErr }

// SetEvents attaches a flight-recorder stream: fallback rounds and
// sanitization drops become typed events. A nil recorder (the default)
// keeps every emission a single nil check.
func (r *Resilient) SetEvents(rec *eventlog.Recorder) { r.ev = rec }

// EnableMetrics registers the wrapper's counters with reg, labeled by
// the primary method's name. A nil registry is a no-op.
func (r *Resilient) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m := obs.L("method", r.Name())
	r.met = resilientMetrics{
		panics:     reg.Counter(MetricResilientPanics, "Primary Decide panics recovered.", m),
		timeouts:   reg.Counter(MetricResilientTimeouts, "Primary Decide deadline expirations.", m),
		fallbacks:  reg.Counter(MetricResilientFallbacks, "Rounds served by the fallback policy.", m),
		recoveries: reg.Counter(MetricResilientRecoveries, "Primary recoveries after failures.", m),
		dropClosed: reg.Counter(MetricResilientDropped,
			"Orders dropped by sanitization.", m, obs.L("reason", "closed_no_remap")),
		remapped: reg.Counter(MetricResilientRemapped,
			"Closed-target orders remapped to an open segment in-region.", m),
	}
}

// Decide implements sim.Dispatcher.
func (r *Resilient) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	if r.skip > 0 {
		r.skip--
		return r.fallbackRound(snap, "backoff")
	}
	if r.inflight != nil {
		// A previous call is still running; the primary is not safe to
		// re-enter. Check whether it finished since last round.
		select {
		case <-r.inflight: // stale result discarded
			r.inflight = nil
		default:
			r.fail(fmt.Errorf("dispatch: primary %s still busy from a previous round", r.Name()))
			return r.fallbackRound(snap, "busy")
		}
	}

	res := r.callPrimary(snap)
	if res.err != nil {
		r.fail(res.err)
		return r.fallbackRound(snap, res.kind)
	}
	if r.failures > 0 {
		r.met.recoveries.Inc()
	}
	r.failures = 0
	r.backoff = r.cfg.BackoffRounds
	r.lastErr = nil
	return r.Sanitize(snap, res.orders), res.delay
}

// callPrimary runs one primary Decide under panic recovery and the
// wall-clock deadline. On timeout the still-running goroutine is
// remembered in r.inflight so no second call can race it.
func (r *Resilient) callPrimary(snap *sim.Snapshot) decideResult {
	ch := make(chan decideResult, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- decideResult{err: fmt.Errorf("dispatch: primary %s panicked: %v", r.primary.Name(), p)}
			}
		}()
		orders, delay := r.primary.Decide(snap)
		ch <- decideResult{orders: orders, delay: delay}
	}()
	timer := time.NewTimer(r.cfg.DecideTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		if res.err != nil {
			r.met.panics.Inc()
		}
		return res
	case <-timer.C:
		r.inflight = ch
		r.met.timeouts.Inc()
		if r.ev != nil {
			r.ev.Emit(eventlog.Event{
				Type:   eventlog.TypeDeadline,
				Method: r.Name(),
				DurMS:  r.cfg.DecideTimeout.Milliseconds(),
			})
		}
		return decideResult{
			err:  fmt.Errorf("dispatch: primary %s exceeded %v deadline", r.primary.Name(), r.cfg.DecideTimeout),
			kind: "timeout",
		}
	}
}

// fail records one consecutive primary failure and arms the backoff
// when the threshold trips.
func (r *Resilient) fail(err error) {
	r.lastErr = err
	r.failures++
	if r.failures >= r.cfg.MaxFailures {
		r.skip = r.backoff
		r.backoff *= 2
		if r.backoff > r.cfg.MaxBackoffRounds {
			r.backoff = r.cfg.MaxBackoffRounds
		}
		r.failures = 0
	}
}

// fallbackRound serves one round from the fallback policy, recording
// why the primary was bypassed.
func (r *Resilient) fallbackRound(snap *sim.Snapshot, kind string) ([]sim.Order, time.Duration) {
	r.met.fallbacks.Inc()
	orders, delay := r.cfg.Fallback.Decide(snap)
	orders = r.Sanitize(snap, orders)
	if r.ev != nil {
		r.ev.Emit(eventlog.Event{Type: eventlog.TypeFallback, Kind: kind, Orders: len(orders)})
	}
	return orders, delay
}

// resilientWire is the wrapper's mutable cross-round state. The inflight
// channel is deliberately absent: a snapshot is restored in a fresh
// process where the timed-out goroutine no longer exists, and wall-clock
// deadlines already sit outside the byte-determinism contract.
type resilientWire struct {
	Failures int
	Skip     int
	Backoff  int
	LastErr  string // errors gob-encode poorly; the message is what matters
	Primary  []byte // inner dispatcher chain blob (nil when stateless)
}

// CaptureState implements sim.StateCodec, delegating to the primary when
// it carries state of its own.
func (r *Resilient) CaptureState() ([]byte, error) {
	w := resilientWire{Failures: r.failures, Skip: r.skip, Backoff: r.backoff}
	if r.lastErr != nil {
		w.LastErr = r.lastErr.Error()
	}
	if c, ok := r.primary.(sim.StateCodec); ok {
		blob, err := c.CaptureState()
		if err != nil {
			return nil, err
		}
		w.Primary = blob
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("dispatch: encoding resilient state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements sim.StateCodec. The primary is restored first
// so a failure leaves the wrapper untouched.
func (r *Resilient) RestoreState(blob []byte) error {
	var w resilientWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		return fmt.Errorf("dispatch: decoding resilient state: %w", err)
	}
	if w.Skip < 0 || w.Backoff < 0 || w.Failures < 0 {
		return fmt.Errorf("dispatch: resilient state has negative counters")
	}
	if c, ok := r.primary.(sim.StateCodec); ok {
		if err := c.RestoreState(w.Primary); err != nil {
			return err
		}
	}
	r.failures = w.Failures
	r.skip = w.Skip
	r.backoff = w.Backoff
	if r.backoff == 0 {
		r.backoff = r.cfg.BackoffRounds
	}
	r.lastErr = nil
	if w.LastErr != "" {
		r.lastErr = fmt.Errorf("%s", w.LastErr)
	}
	r.inflight = nil
	return nil
}

// Sanitize applies the wrapper's own order rule: an anticipatory order
// whose target is closed to civilians is remapped to the open segment
// nearest that segment's region center (dropping the stale route), or
// dropped when the whole region is under water. A closed target that
// holds an active waiting request is left alone: crawling a team into
// the water to reach a known victim is the mission, not a fault. Orders
// that sim.OrderFault flags pass through untouched, so the simulator,
// the one order validator, rejects and counts them.
func (r *Resilient) Sanitize(snap *sim.Snapshot, orders []sim.Order) []sim.Order {
	if len(orders) == 0 {
		return orders
	}
	requested := make(map[roadnet.SegmentID]bool, len(snap.ActiveRequests))
	for _, rq := range snap.ActiveRequests {
		requested[rq.Seg] = true
	}
	g := snap.City.Graph
	base := sim.Civilian(snap.Cost)
	// seen tracks the simulator's view: the vehicles of the orders kept
	// so far, so a pass-through duplicate stays a duplicate there.
	seen := make(map[sim.VehicleID]bool, len(orders))
	out := orders[:0:0] // fresh backing array, same capacity hint
	for _, o := range orders {
		if sim.OrderFault(o, len(snap.Vehicles), g.NumSegments(), seen) != "" {
			out = append(out, o)
			continue
		}
		if !o.ToDepot {
			s := g.Segment(o.Target)
			if w, open := base.SegmentTime(s); !requested[o.Target] && (!open || math.IsInf(w, 1)) {
				remap := nearestOpenInRegion(snap, base, s.Region)
				if remap == roadnet.NoSegment {
					r.met.dropClosed.Inc()
					r.reject("closed_no_remap", o.Vehicle)
					continue
				}
				o.Target = remap
				o.Route = nil
				r.met.remapped.Inc()
			}
		}
		seen[o.Vehicle] = true
		out = append(out, o)
	}
	return out
}

// reject records one sanitization drop in the flight recorder.
func (r *Resilient) reject(kind string, v sim.VehicleID) {
	if r.ev != nil {
		r.ev.Emit(eventlog.Event{Type: eventlog.TypeOrderReject, Kind: kind, Vehicle: int(v)})
	}
}
