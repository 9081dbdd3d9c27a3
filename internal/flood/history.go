package flood

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
)

// History is a precomputed flood timeline: it advances a Model hour by
// hour over a window and keeps every hourly water grid, so callers can
// query depth, flood zones, and road operability at any past instant.
// The mobility generator and the measurement pipeline both need such
// random-access queries ("was this person's previous position inside a
// flooding zone?"), which the forward-only Model cannot answer.
//
// The hourly grids are immutable after construction. The road network
// Ẽ changes only with them, so RoadStateAt computes each (graph, hour)
// road state once, on first request, and hands every later caller in
// that hour the same immutable snapshot. History is safe for concurrent
// use: rollout goroutines and serve sessions share one.
type History struct {
	model  *Model // final state; also reused for depthFor/elev
	start  time.Time
	hours  int
	grids  [][]float64 // hourly copies of the accumulation grid
	params Params

	mu    sync.Mutex // guards the shape of roads, not its slots
	roads map[*roadnet.Graph][]atomic.Pointer[RoadState]
}

// NewHistory precomputes the flood state each hour from start for the
// given number of hours.
func NewHistory(m *Model, hours int) (*History, error) {
	if m == nil {
		return nil, fmt.Errorf("flood: nil model")
	}
	if hours <= 0 {
		return nil, fmt.Errorf("flood: history needs a positive number of hours, got %d", hours)
	}
	h := &History{
		model:  m,
		start:  m.Now(),
		hours:  hours,
		grids:  make([][]float64, hours+1),
		params: m.Params(),
		roads:  make(map[*roadnet.Graph][]atomic.Pointer[RoadState]),
	}
	for i := 0; i <= hours; i++ {
		m.AdvanceTo(h.start.Add(time.Duration(i) * time.Hour))
		h.grids[i] = append([]float64(nil), m.accum...)
	}
	return h, nil
}

// hourIndex clamps t into the covered window and returns the hour slot.
func (h *History) hourIndex(t time.Time) int {
	i := int(t.Sub(h.start) / time.Hour)
	if i < 0 {
		return 0
	}
	if i > h.hours {
		return h.hours
	}
	return i
}

// DepthAt returns the water depth at p at time t (clamped to the window).
func (h *History) DepthAt(p geo.Point, t time.Time) float64 {
	grid := h.grids[h.hourIndex(t)]
	cell := h.model.cellIndex(p)
	return h.model.depthFor(grid[cell], h.model.elev(p)) * patchiness(cell)
}

// InFloodZone reports whether p was inside a flooding zone at t.
func (h *History) InFloodZone(p geo.Point, t time.Time) bool {
	return h.DepthAt(p, t) >= h.params.ZoneDepth
}

// RoadStateAt returns the operability snapshot of g at time t. It
// depends only on g and t's hour, so the first call for an hour computes
// it and every later call in that hour returns the same pointer.
func (h *History) RoadStateAt(g *roadnet.Graph, t time.Time) *RoadState {
	i := h.hourIndex(t)
	slot := &h.roadSlots(g)[i]
	if rs := slot.Load(); rs != nil {
		return rs
	}
	rs := &RoadState{
		At:     h.start.Add(time.Duration(i) * time.Hour),
		depth:  make([]float64, g.NumSegments()),
		closeD: h.params.CloseDepth,
		minFac: h.params.MinSpeedFactor,
	}
	g.Segments(func(s roadnet.Segment) {
		rs.depth[s.ID] = h.DepthAt(g.SegmentMidpoint(s.ID), t)
	})
	// Two first callers may race to fill the slot; both computed the
	// same depths, and the loser adopts the winner's state.
	if !slot.CompareAndSwap(nil, rs) {
		rs = slot.Load()
	}
	return rs
}

// roadSlots returns g's hours+1 road-state slots, making them on first
// use.
func (h *History) roadSlots(g *roadnet.Graph) []atomic.Pointer[RoadState] {
	h.mu.Lock()
	defer h.mu.Unlock()
	slots, ok := h.roads[g]
	if !ok {
		slots = make([]atomic.Pointer[RoadState], h.hours+1)
		h.roads[g] = slots
	}
	return slots
}
