package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
)

// FaultyDispatcher decorates a sim.Dispatcher with the profile's
// sensing and dispatcher faults: stale or dropped active-request views
// before Decide runs, then injected panics, modeled-latency spikes, and
// malformed orders around the decision itself. Wrap it in
// dispatch.Resilient to observe graceful degradation; run it bare to
// prove the simulator survives a crashing dispatcher only if it is
// hardened.
//
// The decorator consumes one deterministic RNG stream advanced once per
// round; with the single-threaded simulator the same seed yields the
// same fault sequence every run.
type FaultyDispatcher struct {
	inner sim.Dispatcher
	in    *Injector
	src   *countingSource // draw counter feeding rng (snapshot resume)
	rng   *rand.Rand
	round int
	prev  []sim.RequestState // previous round's request view (for staleness)
}

var _ sim.Dispatcher = (*FaultyDispatcher)(nil)

// WrapDispatcher decorates inner with the injector's dispatcher and
// sensing faults. With a disabled profile, inner is returned unchanged.
func (in *Injector) WrapDispatcher(inner sim.Dispatcher) sim.Dispatcher {
	if !in.profile.Enabled() {
		return inner
	}
	// A distinct stream from the schedule RNG, still seed-derived. The
	// counting wrapper lets snapshots record the stream position.
	src := &countingSource{src: rand.NewSource(faultySeed(in.seed))}
	return &FaultyDispatcher{
		inner: inner,
		in:    in,
		src:   src,
		rng:   rand.New(src),
	}
}

// Name implements sim.Dispatcher, keeping results keyed by the inner
// method's name.
func (d *FaultyDispatcher) Name() string { return d.inner.Name() }

// Decide implements sim.Dispatcher.
func (d *FaultyDispatcher) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	d.round++
	p := d.in.profile
	view := snap

	// Sensing faults perturb what the dispatcher sees, never the
	// simulator's own state: the snapshot is copied before mutation.
	if d.rng.Float64() < p.StaleSnapshotProb && d.prev != nil {
		cp := *snap
		cp.ActiveRequests = d.prev
		view = &cp
		d.in.met.stale.Inc()
		d.in.emit("stale_snapshot")
	} else if d.rng.Float64() < p.SenseDropProb && len(snap.ActiveRequests) > 0 {
		keep := dropRequests(d.rng, snap.ActiveRequests, p.SenseDropFrac)
		cp := *snap
		cp.ActiveRequests = keep
		view = &cp
		d.in.met.drops.Inc()
		d.in.emit("sense_drop")
	}
	d.prev = append([]sim.RequestState(nil), snap.ActiveRequests...)

	if d.rng.Float64() < p.PanicProb {
		d.in.met.panics.Inc()
		d.in.emit("panic")
		panic(fmt.Sprintf("chaos: injected dispatcher panic (round %d, method %s)", d.round, d.inner.Name()))
	}

	orders, delay := d.inner.Decide(view)

	if d.rng.Float64() < p.LatencySpikeProb && p.LatencySpikeMax > 0 {
		delay += time.Duration(d.rng.Float64() * float64(p.LatencySpikeMax))
		d.in.met.spikes.Inc()
		d.in.emit("latency_spike")
	}
	if d.rng.Float64() < p.MalformedOrderProb && len(orders) > 0 {
		orders = d.corrupt(orders)
		d.in.met.malformed.Inc()
		d.in.emit("malformed")
	}
	return orders, delay
}

// dropRequests removes ~frac of the view, deterministically.
func dropRequests(rng *rand.Rand, reqs []sim.RequestState, frac float64) []sim.RequestState {
	drop := int(float64(len(reqs)) * frac)
	if drop <= 0 {
		drop = 1
	}
	if drop >= len(reqs) {
		drop = len(reqs) - 1
	}
	if drop < 0 {
		return nil
	}
	dropped := make(map[int]bool, drop)
	for _, i := range rng.Perm(len(reqs))[:drop] {
		dropped[i] = true
	}
	keep := make([]sim.RequestState, 0, len(reqs)-drop)
	for i, rq := range reqs {
		if !dropped[i] {
			keep = append(keep, rq)
		}
	}
	return keep
}

// corrupt injects one malformed-order fault into a copy of the batch:
// an unknown vehicle, an out-of-range target, or a duplicate order.
func (d *FaultyDispatcher) corrupt(orders []sim.Order) []sim.Order {
	out := append([]sim.Order(nil), orders...)
	i := d.rng.Intn(len(out))
	switch d.rng.Intn(3) {
	case 0: // unknown vehicle
		out[i].Vehicle = sim.VehicleID(1_000_000 + d.rng.Intn(1000))
	case 1: // out-of-range target segment
		out[i].ToDepot = false
		out[i].Target = roadnet.SegmentID(1<<30 + int32(d.rng.Intn(1000)))
		out[i].Route = nil
	default: // duplicate order for the same vehicle
		dup := out[i]
		dup.Route = nil
		out = append(out, dup)
	}
	return out
}
