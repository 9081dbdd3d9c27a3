package roadnet

import (
	"math"

	"mobirescue/internal/geo"
)

// SegmentIndex is a uniform-grid index over segment midpoints that
// answers NearestSegment queries exactly: for every query point it
// returns the same segment as Graph.NearestSegment's linear scan
// (pinned by equivalence tests), in O(cells probed) instead of
// O(segments). It exists for the metro-scale hot path — synthesizing or
// predicting a million people calls NearestSegment per person, and the
// linear scan is O(people x segments).
//
// Exactness argument: midpoints are bucketed into an n x n grid over
// the padded landmark bounding box. A query probes expanding square
// rings around its cell, tracking the best (distance, lowest segment
// ID) pair seen. After probing all rings up to r, every unprobed
// midpoint lies outside the probed lat/lon rectangle, so its
// FastDistance from the query is at least
//
//	min(R·Δlat_rad below, R·Δlat_rad above,
//	    R·Δlon_rad·cosMin left, R·Δlon_rad·cosMin right)
//
// where cosMin lower-bounds cos(mean latitude) over the box. The
// search stops only when that bound (shrunk by a safety epsilon far
// larger than FastDistance's rounding error) strictly exceeds the best
// distance — so no unprobed segment can beat or tie the answer, and
// FP-equal ties are broken toward the lowest segment ID exactly as the
// linear scan's strict-less replacement does.
//
// SegmentIndex is immutable after construction and safe for concurrent
// use. It is distinct from SpatialIndex, whose NearestSegment is a
// heuristic (an out-segment of the nearest landmark) and is retained
// where the seed pipeline's behavior depends on it.
type SegmentIndex struct {
	bbox         geo.BBox
	n            int
	cellH, cellW float64 // degrees per cell
	cosMin       float64 // lower bound of cos(lat) over the box
	mids         []geo.Point
	cellOff      []int32     // CSR offsets, n*n+1 entries
	cellSegs     []SegmentID // ascending ID within each cell
}

// NewSegmentIndex builds the index over g's segment midpoints. The
// midpoints are computed with Graph.SegmentMidpoint, so the stored
// coordinates are bit-identical to what the linear scan compares
// against.
func NewSegmentIndex(g *Graph) *SegmentIndex {
	numSegs := g.NumSegments()
	// Aim for O(1) midpoints per cell; clamp so tiny graphs don't
	// degenerate and huge ones don't explode the cell table.
	n := int(math.Sqrt(float64(numSegs)))
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	idx := &SegmentIndex{bbox: g.BBox().Pad(500), n: n}
	idx.cellH = (idx.bbox.MaxLat - idx.bbox.MinLat) / float64(n)
	idx.cellW = (idx.bbox.MaxLon - idx.bbox.MinLon) / float64(n)
	maxAbsLat := math.Max(math.Abs(idx.bbox.MinLat), math.Abs(idx.bbox.MaxLat))
	idx.cosMin = math.Cos(maxAbsLat * math.Pi / 180)
	if idx.cosMin < 0 {
		idx.cosMin = 0
	}

	idx.mids = make([]geo.Point, numSegs)
	cellOf := make([]int32, numSegs)
	counts := make([]int32, n*n+1)
	for sid := 0; sid < numSegs; sid++ {
		idx.mids[sid] = g.SegmentMidpoint(SegmentID(sid))
		i, j := idx.cellCoords(idx.mids[sid])
		c := int32(i*n + j)
		cellOf[sid] = c
		counts[c+1]++
	}
	idx.cellOff = counts
	for c := 1; c <= n*n; c++ {
		idx.cellOff[c] += idx.cellOff[c-1]
	}
	idx.cellSegs = make([]SegmentID, numSegs)
	next := make([]int32, n*n)
	copy(next, idx.cellOff[:n*n])
	// Iterating segments in ID order keeps each cell's bucket sorted by
	// ID, which makes the tie-break scan order deterministic.
	for sid := 0; sid < numSegs; sid++ {
		c := cellOf[sid]
		idx.cellSegs[next[c]] = SegmentID(sid)
		next[c]++
	}
	return idx
}

func (idx *SegmentIndex) cellCoords(p geo.Point) (int, int) {
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

// outsideBound returns a lower bound on the FastDistance from p to any
// midpoint outside the square of rings 0..ring around cell (ci, cj).
func (idx *SegmentIndex) outsideBound(p geo.Point, ci, cj, ring int, cosMid float64) float64 {
	rectMinLat := idx.bbox.MinLat + float64(ci-ring)*idx.cellH
	rectMaxLat := idx.bbox.MinLat + float64(ci+ring+1)*idx.cellH
	rectMinLon := idx.bbox.MinLon + float64(cj-ring)*idx.cellW
	rectMaxLon := idx.bbox.MinLon + float64(cj+ring+1)*idx.cellW
	const degRad = math.Pi / 180
	bound := math.Inf(1)
	if m := p.Lat - rectMinLat; m > 0 {
		bound = math.Min(bound, m*degRad)
	} else {
		bound = 0
	}
	if m := rectMaxLat - p.Lat; m > 0 {
		bound = math.Min(bound, m*degRad)
	} else {
		bound = 0
	}
	if m := p.Lon - rectMinLon; m > 0 {
		bound = math.Min(bound, m*degRad*cosMid)
	} else {
		bound = 0
	}
	if m := rectMaxLon - p.Lon; m > 0 {
		bound = math.Min(bound, m*degRad*cosMid)
	} else {
		bound = 0
	}
	return geo.EarthRadiusMeters * bound
}

// NearestSegment returns the segment whose midpoint is closest to p —
// the exact result of Graph.NearestSegment — or NoSegment for an empty
// graph.
func (idx *SegmentIndex) NearestSegment(p geo.Point) SegmentID {
	if len(idx.mids) == 0 {
		return NoSegment
	}
	ci, cj := idx.cellCoords(p)
	best := NoSegment
	bestD := math.Inf(1)
	consider := func(i, j int) {
		if i < 0 || j < 0 || i >= idx.n || j >= idx.n {
			return
		}
		c := i*idx.n + j
		for _, sid := range idx.cellSegs[idx.cellOff[c]:idx.cellOff[c+1]] {
			d := geo.FastDistance(p, idx.mids[sid])
			if d < bestD || (d == bestD && sid < best) {
				bestD = d
				best = sid
			}
		}
	}
	// cos(mean latitude) in FastDistance is bounded below over the box
	// (queries may sit outside the box, so fold the query latitude in).
	cosMid := idx.cosMin
	if abs := math.Abs(p.Lat); abs > math.Max(math.Abs(idx.bbox.MinLat), math.Abs(idx.bbox.MaxLat)) {
		cosMid = math.Cos(abs * math.Pi / 180)
		if cosMid < 0 {
			cosMid = 0
		}
	}
	maxRing := ci
	if r := idx.n - 1 - ci; r > maxRing {
		maxRing = r
	}
	if cj > maxRing {
		maxRing = cj
	}
	if r := idx.n - 1 - cj; r > maxRing {
		maxRing = r
	}
	for ring := 0; ring <= maxRing; ring++ {
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
		if best != NoSegment {
			bound := idx.outsideBound(p, ci, cj, ring, cosMid)
			// Shrink the bound by a margin (~1e-7 relative) that dwarfs
			// FastDistance's rounding error, so FP noise can never make
			// the search stop before an actual minimum or tie.
			if bound*(1-1e-7)-1e-6 > bestD {
				break
			}
		}
	}
	return best
}
