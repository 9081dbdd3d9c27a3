package main

import "testing"

// seq returns the samples 1..n.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: summarize must sort
	}
	return xs
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p50     float64
		tailPct float64
		tail    float64
	}{
		{n: 0},
		{n: 1, p50: 1},
		{n: 19, p50: 10},
		{n: 20, p50: 10, tailPct: 50, tail: 10},
		{n: 99, p50: 50, tailPct: 50, tail: 50},
		{n: 100, p50: 50, tailPct: 90, tail: 90},
		{n: 999, p50: 500, tailPct: 90, tail: 900},
		{n: 1000, p50: 500, tailPct: 99, tail: 990},
		{n: 10000, p50: 5000, tailPct: 99.9, tail: 9990},
	} {
		got := summarize(seq(tc.n))
		want := timing{N: tc.n, P50: tc.p50, TailPct: tc.tailPct, Tail: tc.tail}
		if got != want {
			t.Errorf("summarize(1..%d) = %+v, want %+v", tc.n, got, want)
		}
	}
}

func TestP90RefusesSmallSamples(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0},
		{n: 50},
		{n: 99},
		{n: 100, want: 90, ok: true},
		{n: 288, want: 260, ok: true},
	} {
		got, err := p90(seq(tc.n))
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("p90(1..%d) = %v, %v; want %v, ok=%v", tc.n, got, err, tc.want, tc.ok)
		}
	}
}
