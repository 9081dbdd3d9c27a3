// Package roadnet models the city road network used by MobiRescue: a
// directed graph G = (V, E) whose vertices are landmarks (intersections
// or turning points) and whose edges are road segments, following the
// representation in Section III-A of the paper.
//
// The package provides graph construction and validation, a synthetic
// Charlotte-like generator with the paper's 7 council-district regions,
// time-based shortest-path routing (Dijkstra) under pluggable cost
// models, and JSON persistence.
package roadnet

import (
	"errors"
	"fmt"
	"math"

	"mobirescue/internal/geo"
)

// RoadClass categorises a segment; it determines default speed limits.
type RoadClass uint8

// Road classes, from fastest to slowest.
const (
	ClassUnknown RoadClass = iota
	ClassHighway
	ClassArterial
	ClassCollector
	ClassResidential
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case ClassHighway:
		return "highway"
	case ClassArterial:
		return "arterial"
	case ClassCollector:
		return "collector"
	case ClassResidential:
		return "residential"
	default:
		return "unknown"
	}
}

// DefaultSpeed returns the free-flow speed in m/s for the class.
func (c RoadClass) DefaultSpeed() float64 {
	switch c {
	case ClassHighway:
		return 29.0 // ~65 mph
	case ClassArterial:
		return 18.0 // ~40 mph
	case ClassCollector:
		return 13.4 // ~30 mph
	case ClassResidential:
		return 11.2 // ~25 mph
	default:
		return 13.4
	}
}

// LandmarkID identifies a vertex of the road graph.
type LandmarkID int32

// SegmentID identifies a directed edge of the road graph.
type SegmentID int32

// NoLandmark and NoSegment are sentinel "absent" identifiers.
const (
	NoLandmark LandmarkID = -1
	NoSegment  SegmentID  = -1
)

// Landmark is a vertex: an intersection or turning point.
type Landmark struct {
	ID       LandmarkID `json:"id"`
	Pos      geo.Point  `json:"pos"`
	Altitude float64    `json:"altitude"` // meters above sea level
	Region   int        `json:"region"`   // 1-based region index, 0 if unassigned
}

// Segment is a directed edge: a drivable road segment between two
// landmarks.
type Segment struct {
	ID         SegmentID  `json:"id"`
	From       LandmarkID `json:"from"`
	To         LandmarkID `json:"to"`
	Length     float64    `json:"length"`      // meters
	SpeedLimit float64    `json:"speed_limit"` // m/s, free-flow
	Class      RoadClass  `json:"class"`
	Region     int        `json:"region"` // region of the segment midpoint
}

// FreeFlowTime returns the unimpeded traversal time in seconds.
func (s Segment) FreeFlowTime() float64 {
	if s.SpeedLimit <= 0 {
		return math.Inf(1)
	}
	return s.Length / s.SpeedLimit
}

// Graph is the directed road network. Construct with NewGraph and the
// Add* methods; Graph is not safe for concurrent mutation but is safe
// for concurrent reads once built.
type Graph struct {
	landmarks []Landmark
	segments  []Segment
	out       [][]SegmentID // outgoing segment IDs per landmark
	in        [][]SegmentID // incoming segment IDs per landmark
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddLandmark appends a landmark and returns its ID.
func (g *Graph) AddLandmark(pos geo.Point, altitude float64, region int) LandmarkID {
	id := LandmarkID(len(g.landmarks))
	g.landmarks = append(g.landmarks, Landmark{ID: id, Pos: pos, Altitude: altitude, Region: region})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// AddSegment appends a directed segment from one landmark to another and
// returns its ID. When length <= 0 the great-circle distance between the
// endpoints is used; when speed <= 0 the class default applies. It
// returns an error if either endpoint is unknown or the endpoints
// coincide.
func (g *Graph) AddSegment(from, to LandmarkID, length, speed float64, class RoadClass) (SegmentID, error) {
	if !g.validLandmark(from) || !g.validLandmark(to) {
		return NoSegment, fmt.Errorf("roadnet: invalid endpoints %d -> %d", from, to)
	}
	if from == to {
		return NoSegment, fmt.Errorf("roadnet: self-loop at landmark %d", from)
	}
	if length <= 0 {
		length = geo.Haversine(g.landmarks[from].Pos, g.landmarks[to].Pos)
	}
	if speed <= 0 {
		speed = class.DefaultSpeed()
	}
	region := g.landmarks[from].Region
	if region == 0 {
		region = g.landmarks[to].Region
	}
	id := SegmentID(len(g.segments))
	g.segments = append(g.segments, Segment{
		ID: id, From: from, To: to,
		Length: length, SpeedLimit: speed, Class: class, Region: region,
	})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id, nil
}

// AddRoad adds a bidirectional road (two directed segments) and returns
// both IDs.
func (g *Graph) AddRoad(a, b LandmarkID, length, speed float64, class RoadClass) (SegmentID, SegmentID, error) {
	ab, err := g.AddSegment(a, b, length, speed, class)
	if err != nil {
		return NoSegment, NoSegment, err
	}
	ba, err := g.AddSegment(b, a, length, speed, class)
	if err != nil {
		return NoSegment, NoSegment, err
	}
	return ab, ba, nil
}

func (g *Graph) validLandmark(id LandmarkID) bool {
	return id >= 0 && int(id) < len(g.landmarks)
}

func (g *Graph) validSegment(id SegmentID) bool {
	return id >= 0 && int(id) < len(g.segments)
}

// NumLandmarks returns the number of vertices.
func (g *Graph) NumLandmarks() int { return len(g.landmarks) }

// NumSegments returns the number of directed edges.
func (g *Graph) NumSegments() int { return len(g.segments) }

// Landmark returns the landmark with the given ID. It panics on an
// invalid ID, which indicates programmer error.
func (g *Graph) Landmark(id LandmarkID) Landmark { return g.landmarks[id] }

// Segment returns the segment with the given ID. It panics on an invalid
// ID, which indicates programmer error.
func (g *Graph) Segment(id SegmentID) Segment { return g.segments[id] }

// Out returns the outgoing segment IDs of a landmark. The returned slice
// must not be modified.
func (g *Graph) Out(id LandmarkID) []SegmentID { return g.out[id] }

// In returns the incoming segment IDs of a landmark. The returned slice
// must not be modified.
func (g *Graph) In(id LandmarkID) []SegmentID { return g.in[id] }

// Landmarks iterates over all landmarks, calling fn for each.
func (g *Graph) Landmarks(fn func(Landmark)) {
	for _, lm := range g.landmarks {
		fn(lm)
	}
}

// Segments iterates over all segments, calling fn for each.
func (g *Graph) Segments(fn func(Segment)) {
	for _, s := range g.segments {
		fn(s)
	}
}

// SegmentMidpoint returns the geographic midpoint of a segment.
func (g *Graph) SegmentMidpoint(id SegmentID) geo.Point {
	s := g.segments[id]
	return geo.Interpolate(g.landmarks[s.From].Pos, g.landmarks[s.To].Pos, 0.5)
}

// BBox returns the bounding box of all landmarks.
func (g *Graph) BBox() geo.BBox {
	pts := make([]geo.Point, 0, len(g.landmarks))
	for _, lm := range g.landmarks {
		pts = append(pts, lm.Pos)
	}
	return geo.NewBBox(pts...)
}

// Validate checks structural invariants: endpoint validity, positive
// lengths and speeds, and adjacency-list consistency.
func (g *Graph) Validate() error {
	for _, s := range g.segments {
		if !g.validLandmark(s.From) || !g.validLandmark(s.To) {
			return fmt.Errorf("roadnet: segment %d has invalid endpoints", s.ID)
		}
		if s.Length <= 0 {
			return fmt.Errorf("roadnet: segment %d has non-positive length", s.ID)
		}
		if s.SpeedLimit <= 0 {
			return fmt.Errorf("roadnet: segment %d has non-positive speed", s.ID)
		}
	}
	for lmID, segs := range g.out {
		for _, sid := range segs {
			if !g.validSegment(sid) || g.segments[sid].From != LandmarkID(lmID) {
				return fmt.Errorf("roadnet: out-adjacency of landmark %d inconsistent", lmID)
			}
		}
	}
	for lmID, segs := range g.in {
		for _, sid := range segs {
			if !g.validSegment(sid) || g.segments[sid].To != LandmarkID(lmID) {
				return fmt.Errorf("roadnet: in-adjacency of landmark %d inconsistent", lmID)
			}
		}
	}
	return nil
}

// ErrNoPath is returned when no route exists between two locations.
var ErrNoPath = errors.New("roadnet: no path")

// NearestLandmark returns the landmark closest to p, or NoLandmark for an
// empty graph. It is a linear scan; use a SpatialIndex for bulk queries.
func (g *Graph) NearestLandmark(p geo.Point) LandmarkID {
	best := NoLandmark
	bestD := math.Inf(1)
	for _, lm := range g.landmarks {
		if d := geo.FastDistance(p, lm.Pos); d < bestD {
			bestD = d
			best = lm.ID
		}
	}
	return best
}

// NearestSegment returns the segment whose midpoint is closest to p, or
// NoSegment for an empty graph.
func (g *Graph) NearestSegment(p geo.Point) SegmentID {
	best := NoSegment
	bestD := math.Inf(1)
	for _, s := range g.segments {
		mid := g.SegmentMidpoint(s.ID)
		if d := geo.FastDistance(p, mid); d < bestD {
			bestD = d
			best = s.ID
		}
	}
	return best
}

// Position is a location on the road network: a directed segment plus the
// distance already traveled along it.
type Position struct {
	Seg    SegmentID `json:"seg"`
	Offset float64   `json:"offset"` // meters from the segment start, in [0, Length]
}

// AtLandmark returns a Position at the start of the first outgoing
// segment of lm. It returns an error when lm has no outgoing segments.
func (g *Graph) AtLandmark(lm LandmarkID) (Position, error) {
	if !g.validLandmark(lm) || len(g.out[lm]) == 0 {
		return Position{Seg: NoSegment}, fmt.Errorf("roadnet: landmark %d has no outgoing segments", lm)
	}
	return Position{Seg: g.out[lm][0], Offset: 0}, nil
}

// Point returns the geographic location of pos.
func (g *Graph) Point(pos Position) geo.Point {
	s := g.segments[pos.Seg]
	frac := 0.0
	if s.Length > 0 {
		frac = pos.Offset / s.Length
	}
	return geo.Interpolate(g.landmarks[s.From].Pos, g.landmarks[s.To].Pos, frac)
}

// SegmentIDsByRegion groups all segment IDs by region index.
func (g *Graph) SegmentIDsByRegion() map[int][]SegmentID {
	byRegion := make(map[int][]SegmentID)
	for _, s := range g.segments {
		byRegion[s.Region] = append(byRegion[s.Region], s.ID)
	}
	return byRegion
}
