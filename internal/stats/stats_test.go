package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		mean float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"constant", []float64{3, 3, 3, 3}, 3},
		{"simple", []float64{1, 2, 3, 4, 5}, 3},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.mean, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
		})
	}
}

func TestPearson(t *testing.T) {
	tests := []struct {
		name    string
		xs, ys  []float64
		want    float64
		wantErr bool
	}{
		{"perfect positive", []float64{1, 2, 3, 4}, []float64{2, 4, 6, 8}, 1, false},
		{"perfect negative", []float64{1, 2, 3, 4}, []float64{8, 6, 4, 2}, -1, false},
		{"affine positive", []float64{1, 2, 3}, []float64{10, 20, 30}, 1, false},
		{"length mismatch", []float64{1, 2}, []float64{1}, 0, true},
		{"too short", []float64{1}, []float64{1}, 0, true},
		{"zero variance", []float64{1, 1, 1}, []float64{1, 2, 3}, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Pearson(tt.xs, tt.ys)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if !tt.wantErr && !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Pearson = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(xs []float64, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n < 3 {
			return true
		}
		// Bound magnitudes so intermediate products stay finite.
		bx := make([]float64, n)
		by := make([]float64, n)
		for i := 0; i < n; i++ {
			bx[i] = math.Mod(xs[i], 1e6)
			by[i] = math.Mod(ys[i], 1e6)
		}
		r, err := Pearson(bx, by)
		if err != nil {
			return true // degenerate input
		}
		return r >= -1.0000001 && r <= 1.0000001 && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {2, 0.6}, {2.5, 0.6}, {3, 0.8}, {10, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if c.Len() != 5 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	for _, tt := range []struct {
		p    float64
		want float64
	}{{0, 10}, {0.25, 10}, {0.5, 20}, {0.75, 30}, {1, 40}} {
		got, err := c.Quantile(tt.p)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.p, err)
		}
		if got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := c.Quantile(1.5); err == nil {
		t.Error("out of range p should error")
	}
	empty := NewCDF(nil)
	if _, err := empty.Quantile(0.5); err == nil {
		t.Error("empty CDF Quantile should error")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64, probes []float64) bool {
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		sort.Float64s(probes)
		prev := -1.0
		for _, x := range probes {
			p := c.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 4 {
		t.Errorf("range wrong: %+v", pts)
	}
	if pts[len(pts)-1].P != 1 {
		t.Errorf("last point should have P=1, got %v", pts[len(pts)-1].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P {
			t.Errorf("non-monotone points at %d", i)
		}
	}
	if got := NewCDF(nil).Points(5); got != nil {
		t.Errorf("empty CDF Points = %v", got)
	}
	single := NewCDF([]float64{7}).Points(3)
	if len(single) != 1 || single[0].P != 1 {
		t.Errorf("degenerate Points = %+v", single)
	}
}

func TestConfusion(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN
	for i := 0; i < 3; i++ {
		c.Observe(true, true)
	}
	c.Observe(true, false)
	for i := 0; i < 4; i++ {
		c.Observe(false, false)
	}
	for i := 0; i < 2; i++ {
		c.Observe(false, true)
	}
	if c.Total() != 10 {
		t.Errorf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); !almostEqual(got, 0.7, 1e-12) {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Precision(); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("Precision = %v", got)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 {
		t.Error("empty confusion should report zeros")
	}
}
