package svm

import (
	"math"
	"math/rand"
	"testing"
)

// kernels are the two kernels the tests train, by subtest name.
var kernels = []struct {
	name   string
	kernel Kernel
}{{"linear", Linear{}}, {"rbf", RBF{Gamma: 0.3}}}

// trainFixture fits a model on a smooth separable-ish problem so both
// kernels produce a healthy support-vector set.
func trainFixture(t testing.TB, kernel Kernel, n, d int, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		row := make([]float64, d)
		s := 0.0
		for j := range row {
			row[j] = rng.NormFloat64()*3 + float64(j)
			s += row[j] * float64(j%3-1)
		}
		x[i] = row
		y[i] = s+rng.NormFloat64() > 0
	}
	cfg := DefaultConfig()
	cfg.Kernel = kernel
	cfg.Seed = seed
	m, err := Train(x, y, cfg)
	if err != nil {
		t.Fatalf("Train(%T): %v", kernel, err)
	}
	return m
}

// TestFastDecisionMatchesReference pins Decision (the folded linear
// weight vector; the kernel sum for RBF) against the pre-fast-path
// reference kernel sum on random vectors, for both kernels. The fold
// reassociates floating-point sums, so values are compared to a tight
// relative tolerance and predicted classes must agree whenever the
// margin is not vanishingly small.
func TestFastDecisionMatchesReference(t *testing.T) {
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) {
			m := trainFixture(t, k.kernel, 120, 3, 7)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 2000; i++ {
				x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 100}
				got := m.Decision(x)
				want := m.DecisionReference(x)
				scale := math.Max(1, math.Abs(want))
				if math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("vector %d: fast decision %v != reference %v", i, got, want)
				}
				if math.Abs(want) > 1e-9*scale && (got >= 0) != (want >= 0) {
					t.Fatalf("vector %d: class flip: fast %v reference %v", i, got, want)
				}
			}
		})
	}
}

// TestFastDecisionShortAndLongVectors pins the Scaler.Transform edge
// semantics: features beyond the model dimensionality are ignored and
// missing features are treated as zero.
func TestFastDecisionShortAndLongVectors(t *testing.T) {
	for _, kernel := range []Kernel{Linear{}, RBF{Gamma: 0.5}} {
		m := trainFixture(t, kernel, 80, 3, 3)
		for _, x := range [][]float64{{}, {1.5}, {1.5, -2}, {1.5, -2, 40, 99, 7}} {
			got := m.Decision(x)
			want := m.DecisionReference(x)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%T len=%d: fast %v != reference %v", kernel, len(x), got, want)
			}
		}
	}
}

// TestLinearWeights pins the weights a caller may bound a linear
// model's margin with: b + Σ w[j]·x[j], summed in order, reproduces
// Decision bit for bit. An RBF model reports that it has none.
func TestLinearWeights(t *testing.T) {
	m := trainFixture(t, Linear{}, 120, 3, 7)
	w, b, ok := m.LinearWeights()
	if !ok || len(w) != 3 {
		t.Fatalf("linear model: LinearWeights() = %v, %v, %v, want 3 weights", w, b, ok)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 100}
		s := b
		for j, v := range x {
			s += w[j] * v
		}
		if got := m.Decision(x); got != s {
			t.Fatalf("vector %d: b + w·x = %v, Decision = %v", i, s, got)
		}
	}
	if w, _, ok := trainFixture(t, RBF{Gamma: 0.3}, 80, 3, 5).LinearWeights(); ok || w != nil {
		t.Fatalf("RBF model reported linear weights %v", w)
	}
}

// TestDecisionZeroAlloc is the 0 allocs/op contract for the hot path:
// a linear model's Decision, the only kernel the system trains.
func TestDecisionZeroAlloc(t *testing.T) {
	m := trainFixture(t, Linear{}, 80, 3, 5)
	x := []float64{1, 2, 3}
	if n := testing.AllocsPerRun(200, func() { m.Decision(x) }); n != 0 {
		t.Fatalf("Decision allocates %v/op, want 0", n)
	}
}

// BenchmarkDecision times Decision for both kernels; the linear fold
// reports the 0 allocs/op TestDecisionZeroAlloc pins (make bench-smoke
// runs it at 1x so the fixture cannot rot).
func BenchmarkDecision(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			m := trainFixture(b, k.kernel, 120, 3, 7)
			x := []float64{3.5, 18, 230}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Decision(x)
			}
		})
	}
}

// BenchmarkDecisionReference times the retained reference
// implementation, the baseline for BenchmarkDecision.
func BenchmarkDecisionReference(b *testing.B) {
	for _, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			m := trainFixture(b, k.kernel, 120, 3, 7)
			x := []float64{3.5, 18, 230}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.DecisionReference(x)
			}
		})
	}
}
