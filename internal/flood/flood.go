// Package flood models flood water over the city: a gridded water-depth
// field driven by accumulated precipitation and terrain altitude, with
// drainage over time. It substitutes for the paper's National Weather
// Service satellite imaging, answering the two questions MobiRescue asks
// of that imaging: which positions are inside a flooding zone, and which
// road segments remain operable (the surviving network Ẽ) and at what
// speed.
package flood

import (
	"fmt"
	"math"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/weather"
)

// Params tunes the flood model.
type Params struct {
	// RefAltitude is the altitude (m) at and above which water never
	// accumulates.
	RefAltitude float64
	// AltScale normalizes how much lower ground amplifies depth.
	AltScale float64
	// Runoff converts accumulated precipitation (mm) into water depth (m)
	// on maximally low ground.
	Runoff float64
	// DrainHours is the exponential drainage time constant.
	DrainHours float64
	// ZoneDepth is the depth (m) at which a position counts as inside a
	// flooding zone (people there are potentially trapped).
	ZoneDepth float64
	// CloseDepth is the depth (m) at which a road segment closes.
	CloseDepth float64
	// MinSpeedFactor floors the slowdown applied to wet-but-open roads.
	MinSpeedFactor float64
	// GridCells is the resolution of the water grid per axis.
	GridCells int
	// Step is the integration step.
	Step time.Duration
}

// DefaultParams returns parameters calibrated for the synthetic Charlotte
// scenario (altitudes ~190–235 m).
func DefaultParams() Params {
	return Params{
		RefAltitude:    235,
		AltScale:       45,
		Runoff:         0.0006,
		DrainHours:     48,
		ZoneDepth:      0.75,
		CloseDepth:     0.5,
		MinSpeedFactor: 0.25,
		GridCells:      48,
		Step:           15 * time.Minute,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	if p.AltScale <= 0 {
		return fmt.Errorf("flood: AltScale must be positive")
	}
	if p.Runoff < 0 {
		return fmt.Errorf("flood: Runoff must be non-negative")
	}
	if p.GridCells < 2 {
		return fmt.Errorf("flood: GridCells must be at least 2")
	}
	if p.Step <= 0 {
		return fmt.Errorf("flood: Step must be positive")
	}
	if p.ZoneDepth <= 0 || p.CloseDepth <= 0 {
		return fmt.Errorf("flood: depth thresholds must be positive")
	}
	if p.MinSpeedFactor <= 0 || p.MinSpeedFactor > 1 {
		return fmt.Errorf("flood: MinSpeedFactor must be in (0,1]")
	}
	return nil
}

// Model is the evolving flood state. Advance it forward in time with
// AdvanceTo, then query depths, zones, and road operability. Model is not
// safe for concurrent use; RoadState snapshots are immutable and safe to
// share.
type Model struct {
	params Params
	field  weather.Field
	elev   func(geo.Point) float64
	bbox   geo.BBox
	accum  []float64 // accumulated precipitation (mm) per cell
	now    time.Time
}

// NewModel creates a flood model over bbox driven by field, with elev
// supplying terrain altitude. The model starts dry at start.
func NewModel(field weather.Field, elev func(geo.Point) float64, bbox geo.BBox, start time.Time, params Params) (*Model, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if field == nil || elev == nil {
		return nil, fmt.Errorf("flood: field and elev are required")
	}
	n := params.GridCells
	return &Model{
		params: params,
		field:  field,
		elev:   elev,
		bbox:   bbox,
		accum:  make([]float64, n*n),
		now:    start,
	}, nil
}

// Now returns the model's current time.
func (m *Model) Now() time.Time { return m.now }

// Params returns the model parameters.
func (m *Model) Params() Params { return m.params }

// cellCenter returns the geographic center of cell (i, j).
func (m *Model) cellCenter(i, j int) geo.Point {
	n := m.params.GridCells
	fLat := (float64(i) + 0.5) / float64(n)
	fLon := (float64(j) + 0.5) / float64(n)
	return geo.Point{
		Lat: m.bbox.MinLat + fLat*(m.bbox.MaxLat-m.bbox.MinLat),
		Lon: m.bbox.MinLon + fLon*(m.bbox.MaxLon-m.bbox.MinLon),
	}
}

// cellIndex returns the cell containing p, clamped to the grid.
func (m *Model) cellIndex(p geo.Point) int {
	n := m.params.GridCells
	clamp := func(x float64) int {
		i := int(x * float64(n))
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	i := clamp((p.Lat - m.bbox.MinLat) / (m.bbox.MaxLat - m.bbox.MinLat))
	j := clamp((p.Lon - m.bbox.MinLon) / (m.bbox.MaxLon - m.bbox.MinLon))
	return i*n + j
}

// AdvanceTo integrates precipitation and drainage forward to t. Times
// before the current model time are ignored (the model never rewinds).
func (m *Model) AdvanceTo(t time.Time) {
	n := m.params.GridCells
	for m.now.Before(t) {
		dt := m.params.Step
		if m.now.Add(dt).After(t) {
			dt = t.Sub(m.now)
		}
		drain := 1.0
		if m.params.DrainHours > 0 {
			drain = math.Exp(-dt.Hours() / m.params.DrainHours)
		}
		mid := m.now.Add(dt / 2)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				idx := i*n + j
				rate := m.field.PrecipAt(m.cellCenter(i, j), mid)
				m.accum[idx] = m.accum[idx]*drain + rate*dt.Hours()
			}
		}
		m.now = m.now.Add(dt)
	}
}

// depthFor combines accumulated precipitation with terrain altitude.
func (m *Model) depthFor(accumMM float64, alt float64) float64 {
	low := (m.params.RefAltitude - alt) / m.params.AltScale
	if low <= 0 {
		return 0
	}
	if low > 1.5 {
		low = 1.5
	}
	return m.params.Runoff * accumMM * low
}

// patchiness is a deterministic micro-topography multiplier per grid
// cell in [0.55, 1.45]: real flooding is patchy (culverts, embankments,
// raised roadbeds), leaving passable corridors through inundated areas.
// Without it the flood is a smooth blob, every route through a flooded
// district is equally bad, and knowing the surviving network Ẽ would be
// worthless.
func patchiness(cell int) float64 {
	h := uint64(cell+1) * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return 0.55 + 0.9*float64(h%1000)/999.0
}

// RoadState is an immutable per-segment operability snapshot: the
// surviving road network Ẽ at a moment in time. It implements
// roadnet.CostModel.
type RoadState struct {
	At     time.Time
	depth  []float64 // indexed by SegmentID
	closeD float64
	minFac float64
}

var _ roadnet.SnapshotCost = (*RoadState)(nil)

// SameAs implements roadnet.SnapshotCost: a road state is the same
// state only as itself. History.RoadStateAt hands every caller in an
// hour the same pointer, so a router rebound within an hour keeps its
// trees.
func (rs *RoadState) SameAs(other roadnet.CostModel) bool {
	o, ok := other.(*RoadState)
	return ok && rs != nil && o == rs
}

// Depth returns the water depth on segment id.
func (rs *RoadState) Depth(id roadnet.SegmentID) float64 {
	if int(id) < 0 || int(id) >= len(rs.depth) {
		return 0
	}
	return rs.depth[id]
}

// SpeedFactor returns the 0..1 speed multiplier for segment id; closed
// segments return 0.
func (rs *RoadState) SpeedFactor(id roadnet.SegmentID) float64 {
	d := rs.Depth(id)
	if d >= rs.closeD {
		return 0
	}
	f := 1 - (1-rs.minFac)*(d/rs.closeD)
	if f < rs.minFac {
		f = rs.minFac
	}
	return f
}

// SegmentTime implements roadnet.CostModel: traversal time under the
// current flood, and whether the segment is open.
func (rs *RoadState) SegmentTime(s roadnet.Segment) (float64, bool) {
	f := rs.SpeedFactor(s.ID)
	if f <= 0 {
		return math.Inf(1), false
	}
	return s.FreeFlowTime() / f, true
}
