package roadnet

import (
	"mobirescue/internal/geo"
)

// SpatialIndex is a uniform-grid index over a graph's landmarks for fast
// nearest-landmark queries (request localization). It is
// immutable after construction and safe for concurrent use.
type SpatialIndex struct {
	g     *Graph
	bbox  geo.BBox
	n     int
	cells [][]LandmarkID
}

// NewSpatialIndex builds an index over g's landmarks.
func NewSpatialIndex(g *Graph) *SpatialIndex {
	n := 32
	idx := &SpatialIndex{g: g, bbox: g.BBox().Pad(500), n: n, cells: make([][]LandmarkID, n*n)}
	g.Landmarks(func(lm Landmark) {
		i, j := idx.cellCoords(lm.Pos)
		c := i*n + j
		idx.cells[c] = append(idx.cells[c], lm.ID)
	})
	return idx
}

func (idx *SpatialIndex) cellCoords(p geo.Point) (int, int) {
	clamp := func(x float64) int {
		i := int(x * float64(idx.n))
		if i < 0 {
			return 0
		}
		if i >= idx.n {
			return idx.n - 1
		}
		return i
	}
	i := clamp((p.Lat - idx.bbox.MinLat) / (idx.bbox.MaxLat - idx.bbox.MinLat))
	j := clamp((p.Lon - idx.bbox.MinLon) / (idx.bbox.MaxLon - idx.bbox.MinLon))
	return i, j
}

// NearestLandmark returns the landmark closest to p, or NoLandmark for an
// empty graph. It searches expanding rings of grid cells.
func (idx *SpatialIndex) NearestLandmark(p geo.Point) LandmarkID {
	ci, cj := idx.cellCoords(p)
	best := NoLandmark
	bestD := -1.0
	consider := func(i, j int) {
		if i < 0 || j < 0 || i >= idx.n || j >= idx.n {
			return
		}
		for _, id := range idx.cells[i*idx.n+j] {
			d := geo.FastDistance(p, idx.g.Landmark(id).Pos)
			if bestD < 0 || d < bestD {
				bestD = d
				best = id
			}
		}
	}
	for ring := 0; ring < idx.n; ring++ {
		if ring == 0 {
			consider(ci, cj)
		} else {
			for k := -ring; k <= ring; k++ {
				consider(ci-ring, cj+k)
				consider(ci+ring, cj+k)
				if k > -ring && k < ring {
					consider(ci+k, cj-ring)
					consider(ci+k, cj+ring)
				}
			}
		}
		// After finding a candidate and scanning one additional ring, the
		// candidate is exact for any city-scale geometry.
		if best != NoLandmark && ring >= 1 {
			break
		}
	}
	return best
}

// NearestSegment returns an outgoing segment of the landmark nearest to
// p, or NoSegment when the graph is empty or the landmark is isolated.
func (idx *SpatialIndex) NearestSegment(p geo.Point) SegmentID {
	lm := idx.NearestLandmark(p)
	if lm == NoLandmark {
		return NoSegment
	}
	if out := idx.g.Out(lm); len(out) > 0 {
		return out[0]
	}
	if in := idx.g.In(lm); len(in) > 0 {
		return in[0]
	}
	return NoSegment
}
