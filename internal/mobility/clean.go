package mobility

import (
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
)

// Delivery is a detected hospital delivery: a person appearing at a
// hospital and staying at least the configured threshold (2 h in the
// paper), along with where they were immediately before.
type Delivery struct {
	PersonID int
	Arrive   time.Time
	PrevPos  geo.Point
	PrevTime time.Time
}

// DetectDeliveries implements the paper's data cleaning and hospital-stay
// heuristic over the raw traces, one person at a time. Cleaning drops
// invalid coordinates, positions outside bbox, and samples not after the
// previous kept one. Over the kept samples, a person within radius
// meters of a hospital continuously for at least minStay was delivered
// there. PrevPos is the last kept position before the stay began (the
// zero Point with PrevTime zero when the trace starts at the hospital).
// Times are UTC, the dataset's zone.
func DetectDeliveries(g *roadnet.Graph, hospitals []roadnet.LandmarkID, traces *pop.Store, bbox geo.BBox, radius float64, minStay time.Duration) []Delivery {
	if len(hospitals) == 0 || traces == nil {
		return nil
	}
	hPos := make([]geo.Point, len(hospitals))
	for i, h := range hospitals {
		hPos[i] = g.Landmark(h).Pos
	}
	atHospital := func(p geo.Point) roadnet.LandmarkID {
		for i, hp := range hPos {
			if geo.FastDistance(p, hp) <= radius {
				return hospitals[i]
			}
		}
		return roadnet.NoLandmark
	}
	utc := func(unixNano int64) time.Time { return time.Unix(0, unixNano).UTC() }

	var out []Delivery
	var times []int64 // the kept samples of one person
	var pos []geo.Point
	for i := 0; i < traces.NumPeople(); i++ {
		rawTimes, rawPos := traces.Samples(i)
		times, pos = times[:0], pos[:0]
		for k, p := range rawPos {
			if !p.Valid() || !bbox.Contains(p) {
				continue
			}
			if n := len(times); n > 0 && rawTimes[k] <= times[n-1] {
				continue // duplicate or out-of-order timestamp
			}
			times = append(times, rawTimes[k])
			pos = append(pos, p)
		}
		prev := -1 // last kept sample before the current one, off any stay
		k := 0
		for k < len(pos) {
			h := atHospital(pos[k])
			if h == roadnet.NoLandmark {
				prev = k
				k++
				continue
			}
			// Extend the run at this hospital.
			runStart := k
			for k < len(pos) && atHospital(pos[k]) == h {
				k++
			}
			if time.Duration(times[k-1]-times[runStart]) >= minStay {
				d := Delivery{PersonID: traces.ID(i), Arrive: utc(times[runStart])}
				if prev >= 0 {
					d.PrevPos = pos[prev]
					d.PrevTime = utc(times[prev])
				}
				out = append(out, d)
			}
			if k < len(pos) {
				prev = k - 1
			}
		}
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
