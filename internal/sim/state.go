package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"mobirescue/internal/roadnet"
)

// Mid-run state capture for crash-safe snapshots (internal/snapshot).
// CaptureState is designed to be called where a window-bounded Advance
// stops — before the round's cost rebind — and RestoreState rebuilds a
// freshly constructed simulator to that exact point, so advancing it
// continues the run byte-identically (same events, same results) as if
// it had never stopped.

// StateCodec is implemented by dispatchers (and dispatcher wrappers)
// that carry mutable cross-window state. The simulator captures and
// restores the dispatcher chain's blob alongside its own state; a
// dispatcher that does not implement it is treated as stateless.
// Wrappers delegate to their inner dispatcher so the whole chain
// round-trips through one blob.
type StateCodec interface {
	// CaptureState serializes the dispatcher's mutable state.
	CaptureState() ([]byte, error)
	// RestoreState rebuilds the state captured by CaptureState.
	RestoreState(blob []byte) error
}

// vehicleWire mirrors the unexported vehicle struct for gob. Pending
// travels as HasPending+value because gob cannot distinguish a nil
// *Order from a pointer to the zero Order.
type vehicleWire struct {
	Pos          roadnet.Position
	Phase        VehiclePhase
	Route        []roadnet.SegmentID
	Onboard      []int
	Served       int
	DwellUntil   time.Time
	Resume       VehiclePhase
	OrderStart   time.Time
	HasPending   bool
	Pending      Order
	StalledUntil time.Time
	Verbatim     bool
	Goal         roadnet.LandmarkID
}

// timedOrdersWire mirrors timedOrders.
type timedOrdersWire struct {
	At     time.Time
	Orders []Order
}

// activeWire is one segment's entry of the active-request table.
type activeWire struct {
	Seg  roadnet.SegmentID
	Reqs []int
}

// simWire is the simulator's complete mid-run state. Maps travel as
// slices sorted by key, so one state always encodes to the same bytes.
type simWire struct {
	Now        time.Time
	NextRound  time.Time
	NextAppear int
	NextFault  int
	Requests   []RequestOutcome
	Vehicles   []vehicleWire
	Active     []activeWire
	Delayed    []timedOrdersWire
	Rounds     []RoundStat
	Delays     []time.Duration
	Res        ResilienceStats
	Window     int
	ServedCnt  int
	// Started/Finished carry the run-lifecycle flags: a restored
	// simulator must not re-emit run_start (the original run did), and a
	// finished run restores to a queryable terminal state rather than
	// re-running.
	Started  bool
	Finished bool
	// PendingHits/PendingMisses are the tree-cache deltas accumulated
	// since the last decide event (vehicle stepping and order application
	// route too). The restored simulator's fresh router starts at zero,
	// so these are re-seeded as negative last* counters — the next decide
	// event's delta then comes out identical to the uninterrupted run's.
	PendingHits   int64
	PendingMisses int64
	// Disp is the dispatcher chain's state blob (nil for stateless
	// dispatchers).
	Disp []byte
}

// CaptureState serializes the simulator's complete mid-run state,
// including the dispatcher chain's when it implements StateCodec. Call
// it only where a window-bounded Advance stopped — between windows is
// the only point where the state is self-contained.
func (s *Simulator) CaptureState() ([]byte, error) {
	w := simWire{
		Now:        s.now,
		NextRound:  s.nextRound,
		NextAppear: s.nextAppear,
		NextFault:  s.nextFault,
		Requests:   s.requests,
		Rounds:     s.rounds,
		Delays:     s.delays,
		Res:        s.res,
		Window:     s.window,
		ServedCnt:  s.servedCnt,
		Started:    s.started,
		Finished:   s.finished,
	}
	for _, v := range s.vehicles {
		vw := vehicleWire{
			Pos: v.pos, Phase: v.phase, Route: v.route, Onboard: v.onboard,
			Served: v.served, DwellUntil: v.dwellUntil, Resume: v.resume,
			OrderStart: v.orderStart, StalledUntil: v.stalledUntil,
			Verbatim: v.verbatim, Goal: v.goal,
		}
		if v.pending != nil {
			vw.HasPending = true
			vw.Pending = *v.pending
		}
		w.Vehicles = append(w.Vehicles, vw)
	}
	segs := make([]roadnet.SegmentID, 0, len(s.activeBySeg))
	for seg := range s.activeBySeg {
		segs = append(segs, seg)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for _, seg := range segs {
		w.Active = append(w.Active, activeWire{Seg: seg, Reqs: s.activeBySeg[seg]})
	}
	for _, to := range s.delayed {
		w.Delayed = append(w.Delayed, timedOrdersWire{At: to.at, Orders: to.orders})
	}
	if s.cstats != nil {
		hits, misses := s.cstats.Totals()
		w.PendingHits = hits - s.lastHits
		w.PendingMisses = misses - s.lastMisses
	}
	if c, ok := s.disp.(StateCodec); ok {
		blob, err := c.CaptureState()
		if err != nil {
			return nil, fmt.Errorf("sim: capturing dispatcher state: %w", err)
		}
		w.Disp = blob
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("sim: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState rebuilds a freshly constructed simulator (same city,
// requests, config, dispatcher chain) to the captured mid-run point.
// All-validate-then-commit: the blob is fully decoded and checked
// before any simulator field changes. The next Advance call continues
// the run; the run_start event is not re-emitted.
func (s *Simulator) RestoreState(blob []byte) error {
	var w simWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
		return fmt.Errorf("sim: decoding state: %w", err)
	}
	if len(w.Vehicles) != len(s.vehicles) {
		return fmt.Errorf("sim: snapshot has %d vehicles, simulator has %d", len(w.Vehicles), len(s.vehicles))
	}
	if len(w.Requests) != len(s.requests) {
		return fmt.Errorf("sim: snapshot has %d requests, simulator has %d", len(w.Requests), len(s.requests))
	}
	nseg := s.city.Graph.NumSegments()
	for i, vw := range w.Vehicles {
		if int(vw.Pos.Seg) < 0 || int(vw.Pos.Seg) >= nseg {
			return fmt.Errorf("sim: snapshot vehicle %d on invalid segment %d", i, vw.Pos.Seg)
		}
		for _, idx := range vw.Onboard {
			if idx < 0 || idx >= len(w.Requests) {
				return fmt.Errorf("sim: snapshot vehicle %d carries invalid request index %d", i, idx)
			}
		}
	}
	if w.NextAppear < 0 || w.NextAppear > len(w.Requests) {
		return fmt.Errorf("sim: snapshot appear cursor %d out of range", w.NextAppear)
	}
	if w.NextFault < 0 || w.NextFault > len(s.faults) {
		return fmt.Errorf("sim: snapshot fault cursor %d out of range", w.NextFault)
	}
	// Restore the dispatcher chain first: it can fail, and the simulator
	// must stay untouched when it does.
	if c, ok := s.disp.(StateCodec); ok {
		if err := c.RestoreState(w.Disp); err != nil {
			return fmt.Errorf("sim: restoring dispatcher state: %w", err)
		}
	}

	s.now = w.Now
	s.nextRound = w.NextRound
	s.nextAppear = w.NextAppear
	s.nextFault = w.NextFault
	s.requests = w.Requests
	s.activeBySeg = make(map[roadnet.SegmentID][]int, len(w.Active))
	for _, a := range w.Active {
		s.activeBySeg[a.Seg] = a.Reqs
	}
	for i, vw := range w.Vehicles {
		v := s.vehicles[i]
		v.pos = vw.Pos
		v.phase = vw.Phase
		v.route = vw.Route
		v.onboard = vw.Onboard
		v.served = vw.Served
		v.dwellUntil = vw.DwellUntil
		v.resume = vw.Resume
		v.orderStart = vw.OrderStart
		v.pending = nil
		if vw.HasPending {
			p := vw.Pending
			v.pending = &p
		}
		v.stalledUntil = vw.StalledUntil
		v.verbatim = vw.Verbatim
		v.goal = vw.Goal
	}
	s.delayed = s.delayed[:0]
	for _, to := range w.Delayed {
		s.delayed = append(s.delayed, timedOrders{at: to.At, orders: to.Orders})
	}
	s.rounds = w.Rounds
	s.delays = w.Delays
	s.res = w.Res
	s.window = w.Window
	s.servedCnt = w.ServedCnt
	// Seed the cache-delta baseline negative so the next decide event
	// reports (fresh-router totals) − (−pending) = pending + new work,
	// matching the uninterrupted run.
	s.lastHits = -w.PendingHits
	s.lastMisses = -w.PendingMisses
	if s.ev != nil {
		s.ev.SetWindow(w.Window)
	}
	// A snapshot is only taken mid-run, after run_start — but Started is
	// carried explicitly rather than assumed, so a pre-start capture (a
	// session checkpointed before its first Advance) also round-trips.
	s.started = w.Started
	s.finished = w.Finished
	s.result = nil
	return nil
}
