package mobility

import (
	"time"

	"mobirescue/internal/roadnet"
)

// Flow is the per-segment, per-hour vehicle flow count over a window
// (Definition 2: vehicle flow rate is vehicles per hour through a
// segment; a region's rate averages over its segments).
type Flow struct {
	hours   int
	numSegs int
	counts  []int32 // hour*numSegs + segment
}

// CountFlows tallies trips into hourly per-segment counts. A trip
// contributes one vehicle to every segment on its route, attributed to
// the hour in which the trip departs (trips are far shorter than an hour
// at city scale).
func CountFlows(g *roadnet.Graph, trips []Trip, start time.Time, hours int) *Flow {
	f := &Flow{
		hours:   hours,
		numSegs: g.NumSegments(),
		counts:  make([]int32, hours*g.NumSegments()),
	}
	for _, tr := range trips {
		h := int(tr.Depart.Sub(start) / time.Hour)
		if h < 0 || h >= hours {
			continue
		}
		base := h * f.numSegs
		for _, sid := range tr.Segs {
			if int(sid) >= 0 && int(sid) < f.numSegs {
				f.counts[base+int(sid)]++
			}
		}
	}
	return f
}

// At returns the vehicle count on seg during hour slot h.
func (f *Flow) At(seg roadnet.SegmentID, h int) float64 {
	if h < 0 || h >= f.hours || int(seg) < 0 || int(seg) >= f.numSegs {
		return 0
	}
	return float64(f.counts[h*f.numSegs+int(seg)])
}

// RegionHourly returns the hourly region flow rate: for each hour, the
// mean count over all segments in the region.
func (f *Flow) RegionHourly(g *roadnet.Graph, region int) []float64 {
	segs := g.SegmentIDsByRegion()[region]
	out := make([]float64, f.hours)
	if len(segs) == 0 {
		return out
	}
	for h := 0; h < f.hours; h++ {
		sum := 0.0
		for _, sid := range segs {
			sum += f.At(sid, h)
		}
		out[h] = sum / float64(len(segs))
	}
	return out
}

// RegionDailyMean returns the mean hourly region flow rate on a 0-based
// day.
func (f *Flow) RegionDailyMean(g *roadnet.Graph, region, day int) float64 {
	hourly := f.RegionHourly(g, region)
	lo, hi := day*24, (day+1)*24
	if lo < 0 || lo >= len(hourly) {
		return 0
	}
	if hi > len(hourly) {
		hi = len(hourly)
	}
	sum := 0.0
	for h := lo; h < hi; h++ {
		sum += hourly[h]
	}
	return sum / float64(hi-lo)
}

// SegmentDailyMean returns a segment's mean hourly flow on a 0-based day.
func (f *Flow) SegmentDailyMean(seg roadnet.SegmentID, day int) float64 {
	lo, hi := day*24, (day+1)*24
	if lo < 0 || lo >= f.hours {
		return 0
	}
	if hi > f.hours {
		hi = f.hours
	}
	sum := 0.0
	for h := lo; h < hi; h++ {
		sum += f.At(seg, h)
	}
	return sum / float64(hi-lo)
}

// DayHourly returns, for a 0-based day, the 24 hourly region flow rates
// (shorter at the window edge).
func (f *Flow) DayHourly(g *roadnet.Graph, region, day int) []float64 {
	hourly := f.RegionHourly(g, region)
	lo, hi := day*24, (day+1)*24
	if lo < 0 || lo >= len(hourly) {
		return nil
	}
	if hi > len(hourly) {
		hi = len(hourly)
	}
	return hourly[lo:hi]
}
