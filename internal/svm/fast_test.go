package svm

import (
	"math"
	"math/rand"
	"testing"
)

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
		t.Fatalf("Train(%s): %v", kernel.Name(), err)
	}
	return m
}

// TestFastDecisionMatchesReference pins the fast path (folded scaler,
// precomputed weight vector / flattened SVs) against the pre-fast-path
// reference kernel sum on random vectors, for both kernels. The two
// reassociate floating-point sums, so values are compared to a tight
// relative tolerance and predicted classes must agree whenever the
// margin is not vanishingly small.
func TestFastDecisionMatchesReference(t *testing.T) {
	for _, kernel := range []Kernel{Linear{}, RBF{Gamma: 0.3}} {
		kernel := kernel
		t.Run(kernel.Name(), func(t *testing.T) {
			m := trainFixture(t, kernel, 120, 3, 7)
			ws := NewWorkspace()
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 2000; i++ {
				x := []float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 100}
				got := m.DecisionInto(ws, x)
				want := m.DecisionReference(x)
				scale := math.Max(1, math.Abs(want))
				if math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("vector %d: fast decision %v != reference %v", i, got, want)
				}
				if math.Abs(want) > 1e-9*scale && (got >= 0) != (want >= 0) {
					t.Fatalf("vector %d: class flip: fast %v reference %v", i, got, want)
				}
				if m.Decision(x) != got {
					t.Fatalf("vector %d: Decision (pooled) disagrees with DecisionInto", i)
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
		ws := NewWorkspace()
		for _, x := range [][]float64{{}, {1.5}, {1.5, -2}, {1.5, -2, 40, 99, 7}} {
			got := m.DecisionInto(ws, x)
			want := m.DecisionReference(x)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("%s len=%d: fast %v != reference %v", kernel.Name(), len(x), got, want)
			}
		}
	}
}

// TestDecisionIntoZeroAlloc is the 0 allocs/op contract for the hot
// path, for both kernels (the RBF path exercises the workspace).
func TestDecisionIntoZeroAlloc(t *testing.T) {
	for _, kernel := range []Kernel{Linear{}, RBF{Gamma: 0.3}} {
		m := trainFixture(t, kernel, 80, 3, 5)
		ws := NewWorkspace()
		x := []float64{1, 2, 3}
		m.DecisionInto(ws, x) // warm the workspace
		if n := testing.AllocsPerRun(200, func() { m.DecisionInto(ws, x) }); n != 0 {
			t.Fatalf("%s: DecisionInto allocates %v/op, want 0", kernel.Name(), n)
		}
	}
}

// BenchmarkDecisionInto pins the zero-allocation contract in the bench
// suite (make bench-smoke runs it at 1x so the fixture cannot rot).
func BenchmarkDecisionInto(b *testing.B) {
	for _, kernel := range []Kernel{Linear{}, RBF{Gamma: 0.3}} {
		kernel := kernel
		b.Run(kernel.Name(), func(b *testing.B) {
			m := trainFixture(b, kernel, 120, 3, 7)
			ws := NewWorkspace()
			x := []float64{3.5, 18, 230}
			m.DecisionInto(ws, x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.DecisionInto(ws, x)
			}
		})
	}
}

// BenchmarkDecisionReference times the retained reference
// implementation, the baseline for BenchmarkDecisionInto.
func BenchmarkDecisionReference(b *testing.B) {
	for _, kernel := range []Kernel{Linear{}, RBF{Gamma: 0.3}} {
		kernel := kernel
		b.Run(kernel.Name(), func(b *testing.B) {
			m := trainFixture(b, kernel, 120, 3, 7)
			x := []float64{3.5, 18, 230}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.DecisionReference(x)
			}
		})
	}
}
