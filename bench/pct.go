package main

import (
	"fmt"
	"sort"
)

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: a p90 from 50 samples is the
// fifth-slowest sample, not a distribution tail.
const minTailBeyond = 10

// Percentiles are handled in per-mille so rank arithmetic stays exact.
const (
	p50pm = 500
	p90pm = 900
)

// tailCandidates are the tail percentiles summarize may report, highest
// first: p99.9, p99, p90, p50.
var tailCandidates = []int{999, 990, p90pm, p50pm}

// timing summarizes one set of duration samples: the median plus the
// highest standard percentile with at least minTailBeyond samples
// beyond it, always with the sample count.
type timing struct {
	N       int
	P50     float64
	TailPct float64 // 0 when fewer than minTailBeyond samples exist
	Tail    float64
}

// summarize computes a timing over xs (any unit; xs is not modified).
func summarize(xs []float64) timing {
	t := timing{N: len(xs)}
	if len(xs) == 0 {
		return t
	}
	s := sortedCopy(xs)
	t.P50 = rank(s, p50pm)
	for _, pm := range tailCandidates {
		if beyond(len(s), pm) >= minTailBeyond {
			t.TailPct, t.Tail = float64(pm)/10, rank(s, pm)
			break
		}
	}
	return t
}

// p90 returns the 90th percentile of xs, refusing samples too small to
// have minTailBeyond values beyond it (fewer than 100).
func p90(xs []float64) (float64, error) {
	if beyond(len(xs), p90pm) < minTailBeyond {
		return 0, fmt.Errorf("p90 needs at least %d samples, have %d", 10*minTailBeyond, len(xs))
	}
	return rank(sortedCopy(xs), p90pm), nil
}

// median returns the 50th percentile of xs (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return rank(sortedCopy(xs), p50pm)
}

// rank is the nearest-rank percentile of sorted samples: the smallest
// sample with at least pm per mille of the samples at or below it.
func rank(sorted []float64, pm int) float64 {
	i := ceilRank(len(sorted), pm) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// beyond counts the samples strictly above the nearest-rank percentile
// of n samples.
func beyond(n, pm int) int { return n - ceilRank(n, pm) }

// ceilRank is ceil(n * pm / 1000) in integers.
func ceilRank(n, pm int) int { return (n*pm + 999) / 1000 }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
