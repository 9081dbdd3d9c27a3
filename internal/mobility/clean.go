package mobility

import (
	"sort"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
)

// Clean applies the paper's data-cleaning stage: it drops invalid
// coordinates, positions outside the area of interest, out-of-order
// samples, and redundant consecutive samples (same person, effectively
// the same position and a timestamp within dedup of the previous kept
// sample). Points must be grouped by person and time-ordered within each
// person, which is how Generate emits them; Clean re-sorts defensively.
func Clean(points []GPSPoint, bbox geo.BBox, dedup time.Duration) []GPSPoint {
	sorted := append([]GPSPoint(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].PersonID != sorted[j].PersonID {
			return sorted[i].PersonID < sorted[j].PersonID
		}
		return sorted[i].Time.Before(sorted[j].Time)
	})
	out := sorted[:0]
	var lastKept *GPSPoint
	for i := range sorted {
		p := sorted[i]
		if !p.Pos.Valid() || !bbox.Contains(p.Pos) {
			continue
		}
		if lastKept != nil && lastKept.PersonID == p.PersonID {
			if !p.Time.After(lastKept.Time) {
				continue // duplicate or out-of-order timestamp
			}
			if dedup > 0 && p.Time.Sub(lastKept.Time) < dedup &&
				geo.FastDistance(p.Pos, lastKept.Pos) < 5 {
				continue // redundant position
			}
		}
		out = append(out, p)
		lastKept = &out[len(out)-1]
	}
	return out
}

// Delivery is a detected hospital delivery: a person appearing at a
// hospital and staying at least the configured threshold (2 h in the
// paper), along with where they were immediately before.
type Delivery struct {
	PersonID int
	Hospital roadnet.LandmarkID
	Arrive   time.Time
	PrevPos  geo.Point
	PrevTime time.Time
}

// DetectDeliveries implements the paper's hospital-stay heuristic over
// cleaned, per-person time-ordered points: a person within radius meters
// of a hospital continuously for at least minStay was delivered there.
// PrevPos is the last position observed before the stay began (the zero
// Point with PrevTime zero when the trace starts at the hospital).
func DetectDeliveries(g *roadnet.Graph, hospitals []roadnet.LandmarkID, points []GPSPoint, radius float64, minStay time.Duration) []Delivery {
	if len(hospitals) == 0 || len(points) == 0 {
		return nil
	}
	hPos := make([]geo.Point, len(hospitals))
	for i, h := range hospitals {
		hPos[i] = g.Landmark(h).Pos
	}
	atHospital := func(p geo.Point) (roadnet.LandmarkID, bool) {
		for i, hp := range hPos {
			if geo.FastDistance(p, hp) <= radius {
				return hospitals[i], true
			}
		}
		return roadnet.NoLandmark, false
	}

	var out []Delivery
	// points are grouped by person and time-ordered (Clean guarantees it).
	i := 0
	for i < len(points) {
		person := points[i].PersonID
		j := i
		for j < len(points) && points[j].PersonID == person {
			j++
		}
		trace := points[i:j]
		var prev *GPSPoint
		k := 0
		for k < len(trace) {
			h, ok := atHospital(trace[k].Pos)
			if !ok {
				prev = &trace[k]
				k++
				continue
			}
			// Extend the run at this hospital.
			runStart := k
			for k < len(trace) {
				rh, rok := atHospital(trace[k].Pos)
				if !rok || rh != h {
					break
				}
				k++
			}
			stay := trace[k-1].Time.Sub(trace[runStart].Time)
			if stay >= minStay {
				d := Delivery{
					PersonID: person,
					Hospital: h,
					Arrive:   trace[runStart].Time,
				}
				if prev != nil {
					d.PrevPos = prev.Pos
					d.PrevTime = prev.Time
				}
				out = append(out, d)
			}
			if k < len(trace) {
				prev = &trace[k-1]
			}
		}
		i = j
	}
	return out
}

// LabelRescued filters deliveries down to those whose previous position
// was inside a flooding zone — the paper's ground truth for "this person
// was trapped by flooding and rescued to the hospital".
func LabelRescued(deliveries []Delivery, inZone func(geo.Point, time.Time) bool) []Delivery {
	var out []Delivery
	for _, d := range deliveries {
		if d.PrevTime.IsZero() {
			continue
		}
		if inZone(d.PrevPos, d.PrevTime) {
			out = append(out, d)
		}
	}
	return out
}
