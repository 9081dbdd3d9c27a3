// Package stats provides the statistical primitives MobiRescue's
// measurement and evaluation pipelines rely on: the mean, Pearson
// correlation (Table I), empirical CDFs (Figures 3, 10, 12, 13, 15, 16),
// and classification metrics for the SVM evaluation.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient between xs and ys,
// cov(X,Y)/(σ_X σ_Y), as used for Table I of the paper. It returns an
// error when the slices differ in length, are shorter than 2, or when
// either series has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0, errors.New("stats: zero variance series")
	}
	return cov / math.Sqrt(vx*vy), nil
}

// CDF is an empirical cumulative distribution function over a sample set.
// The zero value is not usable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. It copies the input.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// Len returns the number of underlying samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), i.e. the fraction of samples at or below x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v such that At(v) >= p, for
// p in (0,1]. Quantile(0) returns the minimum sample.
func (c *CDF) Quantile(p float64) (float64, error) {
	if len(c.sorted) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", p)
	}
	if p == 0 {
		return c.sorted[0], nil
	}
	idx := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.sorted) {
		idx = len(c.sorted) - 1
	}
	return c.sorted[idx], nil
}

// CDFPoint is one (x, P(X<=x)) evaluation of a CDF, used when printing
// figure series.
type CDFPoint struct {
	X float64
	P float64
}

// Points evaluates the CDF at n evenly spaced x positions spanning
// [min, max] of the samples, suitable for plotting or table output.
func (c *CDF) Points(n int) []CDFPoint {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	pts := make([]CDFPoint, 0, n)
	if n == 1 || hi == lo {
		return append(pts, CDFPoint{X: hi, P: 1})
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, CDFPoint{X: x, P: c.At(x)})
	}
	return pts
}

// Confusion is a binary-classification confusion matrix. It backs the
// paper's prediction accuracy and precision metrics (Figures 15 and 16).
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one (predicted, actual) pair.
func (c *Confusion) Observe(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of observed pairs.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/(TP+TN+FP+FN), or 0 when empty.
func (c Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// Precision returns TP/(TP+FP), or 0 when no positive predictions exist.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}
