package svm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// separableSet builds a linearly separable 2-D training set: positives
// around (+2,+2), negatives around (-2,-2).
func separableSet(rng *rand.Rand, n int) ([][]float64, []bool) {
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := 0; i < n; i++ {
		cx, cy := -2.0, -2.0
		y[i] = i%2 == 0
		if y[i] {
			cx, cy = 2.0, 2.0
		}
		x[i] = []float64{cx + rng.NormFloat64()*0.4, cy + rng.NormFloat64()*0.4}
	}
	return x, y
}

func TestTrainSeparableLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := separableSet(rng, 100)
	cfg := DefaultConfig()
	cfg.Kernel = Linear{}
	m, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got := m.Predict(x[i]); got != y[i] {
			t.Fatalf("misclassified training point %d: %v (decision %v)", i, x[i], m.Decision(x[i]))
		}
	}
	if m.NumSVs() == 0 || m.NumSVs() > len(x) {
		t.Errorf("NumSVs = %d", m.NumSVs())
	}
}

func TestTrainSeparableGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := separableSet(rng, 120)
	m, err := Train(x, y, DefaultConfig()) // default RBF
	if err != nil {
		t.Fatal(err)
	}
	// Fresh test points from the same distribution.
	tx, ty := separableSet(rand.New(rand.NewSource(99)), 200)
	correct := 0
	for i := range tx {
		if m.Predict(tx[i]) == ty[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(tx)); acc < 0.97 {
		t.Errorf("held-out accuracy = %v, want >= 0.97", acc)
	}
}

func TestTrainXORNeedsRBF(t *testing.T) {
	// XOR pattern: linearly inseparable, solvable with RBF.
	var x [][]float64
	var y []bool
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		if math.Abs(a) < 0.2 || math.Abs(b) < 0.2 {
			continue // margin gap
		}
		x = append(x, []float64{a, b})
		y = append(y, (a > 0) != (b > 0))
	}
	cfg := DefaultConfig()
	cfg.Kernel = RBF{Gamma: 2}
	cfg.C = 10
	m, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Errorf("XOR training accuracy with RBF = %v, want >= 0.95", acc)
	}
}

func TestTrainFactorsLikeRescueData(t *testing.T) {
	// Synthetic rescue data in the paper's factor space: rescued people
	// see high precipitation, high wind, low altitude.
	rng := rand.New(rand.NewSource(6))
	var x [][]float64
	var y []bool
	for i := 0; i < 300; i++ {
		rescued := i%2 == 0
		var precip, wind, alt float64
		if rescued {
			precip = 100 + rng.NormFloat64()*25
			wind = 55 + rng.NormFloat64()*12
			alt = 195 + rng.NormFloat64()*8
		} else {
			precip = 30 + rng.NormFloat64()*20
			wind = 25 + rng.NormFloat64()*10
			alt = 225 + rng.NormFloat64()*10
		}
		x = append(x, []float64{precip, wind, alt})
		y = append(y, rescued)
	}
	m, err := Train(x, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range x {
		if m.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.9 {
		t.Errorf("rescue-factor accuracy = %v, want >= 0.9", acc)
	}
	// Clearly dangerous conditions must be flagged.
	if !m.Predict([]float64{150, 70, 190}) {
		t.Error("extreme conditions should predict rescue")
	}
	if m.Predict([]float64{0, 5, 235}) {
		t.Error("calm conditions should not predict rescue")
	}
}

func TestTrainValidation(t *testing.T) {
	good := [][]float64{{1, 2}, {3, 4}}
	tests := []struct {
		name string
		x    [][]float64
		y    []bool
	}{
		{"length mismatch", good, []bool{true}},
		{"too few", [][]float64{{1}}, []bool{true}},
		{"empty features", [][]float64{{}, {}}, []bool{true, false}},
		{"inconsistent dims", [][]float64{{1}, {1, 2}}, []bool{true, false}},
		{"single class", good, []bool{true, true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Train(tt.x, tt.y, DefaultConfig()); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, y := separableSet(rng, 80)
	cfg := DefaultConfig()
	m1, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.7}
	if m1.Decision(probe) != m2.Decision(probe) {
		t.Error("same seed should give identical models")
	}
}

func TestKernels(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := (Linear{}).Compute(a, b); got != 32 {
		t.Errorf("Linear = %v, want 32", got)
	}
	rbf := RBF{Gamma: 0.5}
	if got := rbf.Compute(a, a); got != 1 {
		t.Errorf("RBF(a,a) = %v, want 1", got)
	}
	if got := rbf.Compute(a, b); got <= 0 || got >= 1 {
		t.Errorf("RBF(a,b) = %v, want in (0,1)", got)
	}
}

func TestRBFKernelProperties(t *testing.T) {
	k := RBF{Gamma: 1}
	f := func(a, b [3]float64) bool {
		va, vb := make([]float64, 3), make([]float64, 3)
		for i := 0; i < 3; i++ {
			va[i] = math.Mod(a[i], 3)
			vb[i] = math.Mod(b[i], 3)
		}
		kab := k.Compute(va, vb)
		kba := k.Compute(vb, va)
		return kab == kba && kab > 0 && kab <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 100}, {3, 100}, {5, 100}}
	s := FitScaler(x)
	if math.Abs(s.Mean[0]-3) > 1e-12 {
		t.Errorf("Mean[0] = %v", s.Mean[0])
	}
	// Constant feature: std forced to 1 (centering only).
	if s.Std[1] != 1 {
		t.Errorf("constant feature std = %v, want 1", s.Std[1])
	}
	out := s.Transform([]float64{3, 100})
	if math.Abs(out[0]) > 1e-12 || math.Abs(out[1]) > 1e-12 {
		t.Errorf("Transform(mean) = %v, want zeros", out)
	}
	// Empty scaler copies through.
	empty := FitScaler(nil)
	in := []float64{1, 2}
	got := empty.Transform(in)
	if len(got) != 2 || got[0] != 1 {
		t.Errorf("empty Transform = %v", got)
	}
	got[0] = 99
	if in[0] == 99 {
		t.Error("Transform must not alias its input")
	}
	// Short input is zero-padded.
	padded := s.Transform([]float64{3})
	if len(padded) != 2 {
		t.Errorf("padded length = %d", len(padded))
	}
}

func TestScalerStandardizesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := make([][]float64, 500)
	for i := range x {
		x[i] = []float64{rng.NormFloat64()*50 + 200}
	}
	s := FitScaler(x)
	var mean, m2 float64
	for _, row := range x {
		v := s.Transform(row)[0]
		mean += v
	}
	mean /= float64(len(x))
	for _, row := range x {
		v := s.Transform(row)[0] - mean
		m2 += v * v
	}
	sd := math.Sqrt(m2 / float64(len(x)))
	if math.Abs(mean) > 0.01 || math.Abs(sd-1) > 0.01 {
		t.Errorf("standardized mean=%v sd=%v", mean, sd)
	}
}

func TestDecisionConsistentWithPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := separableSet(rng, 60)
	m, err := Train(x, y, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		p := []float64{math.Mod(a, 5), math.Mod(b, 5)}
		return m.Predict(p) == (m.Decision(p) >= 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTrain300(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x, y := separableSet(rng, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x, y := separableSet(rng, 300)
	m, err := Train(x, y, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	probe := []float64{0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(probe)
	}
}
