package nn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func mustNew(t testing.TB, seed int64, sizes []int, hidden, out Act) *Network {
	t.Helper()
	n, err := New(seed, sizes, hidden, out)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, []int{3}, ActReLU, ActLinear); err == nil {
		t.Error("single layer should error")
	}
	if _, err := New(1, []int{3, 0, 2}, ActReLU, ActLinear); err == nil {
		t.Error("zero-size layer should error")
	}
	n := mustNew(t, 1, []int{3, 5, 2}, ActReLU, ActLinear)
	if n.InputSize() != 3 || n.OutputSize() != 2 {
		t.Errorf("sizes = %d in, %d out", n.InputSize(), n.OutputSize())
	}
	wantParams := 3*5 + 5 + 5*2 + 2
	if n.NumParams() != wantParams {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), wantParams)
	}
}

func TestForwardDeterministicAndSeeded(t *testing.T) {
	a := mustNew(t, 42, []int{2, 4, 1}, ActTanh, ActLinear)
	b := mustNew(t, 42, []int{2, 4, 1}, ActTanh, ActLinear)
	c := mustNew(t, 43, []int{2, 4, 1}, ActTanh, ActLinear)
	x := []float64{0.5, -0.3}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Error("same seed should give same output")
	}
	if a.Forward(x)[0] == c.Forward(x)[0] {
		t.Error("different seeds should give different outputs")
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	n := mustNew(t, 1, []int{2, 2}, ActReLU, ActLinear)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	n.Forward([]float64{1})
}

func TestActivations(t *testing.T) {
	tests := []struct {
		act  Act
		in   float64
		want float64
	}{
		{ActLinear, -3, -3},
		{ActReLU, -3, 0},
		{ActReLU, 3, 3},
		{ActTanh, 0, 0},
		{ActSigmoid, 0, 0.5},
	}
	for _, tt := range tests {
		if got := tt.act.apply(tt.in); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("act %d apply(%v) = %v, want %v", tt.act, tt.in, got, tt.want)
		}
	}
	// Derivatives given output y.
	if got := ActTanh.deriv(0.5); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("tanh deriv = %v", got)
	}
	if got := ActSigmoid.deriv(0.5); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("sigmoid deriv = %v", got)
	}
}

// TestGradientMatchesNumerical is the core correctness test: analytic
// backprop must match central-difference numerical gradients.
func TestGradientMatchesNumerical(t *testing.T) {
	for _, hidden := range []Act{ActReLU, ActTanh, ActSigmoid} {
		n := mustNew(t, 7, []int{3, 4, 2}, hidden, ActLinear)
		x := []float64{0.3, -0.8, 0.5}
		target := []float64{0.7, -0.2}

		loss := func() float64 {
			out := n.Forward(x)
			l, err := mse(out, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}

		// Analytic gradient.
		grad := make([]float64, n.NumParams())
		out := n.Forward(x)
		dOut := make([]float64, len(out))
		if _, err := mse(out, target, dOut); err != nil {
			t.Fatal(err)
		}
		n.Gradient(x, dOut, grad)

		// Numerical gradient for a sample of parameters.
		params := n.Params()
		const eps = 1e-6
		for _, idx := range []int{0, 3, 7, 11, len(params) - 1, len(params) / 2} {
			orig := params[idx]
			params[idx] = orig + eps
			up := loss()
			params[idx] = orig - eps
			down := loss()
			params[idx] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-grad[idx]) > 1e-5*(1+math.Abs(num)) {
				t.Errorf("act %d param %d: analytic %v vs numerical %v", hidden, idx, grad[idx], num)
			}
		}
	}
}

func TestGradientAccumulates(t *testing.T) {
	n := mustNew(t, 8, []int{2, 3, 1}, ActTanh, ActLinear)
	x := []float64{0.2, 0.4}
	dOut := []float64{1}
	g1 := make([]float64, n.NumParams())
	n.Gradient(x, dOut, g1)
	g2 := make([]float64, n.NumParams())
	n.Gradient(x, dOut, g2)
	n.Gradient(x, dOut, g2)
	for i := range g1 {
		if math.Abs(g2[i]-2*g1[i]) > 1e-12 {
			t.Fatalf("param %d: gradient did not accumulate (%v vs 2*%v)", i, g2[i], g1[i])
		}
	}
}

func TestLearnXOR(t *testing.T) {
	n := mustNew(t, 3, []int{2, 8, 1}, ActTanh, ActLinear)
	data := [][2][]float64{
		{{0, 0}, {0}},
		{{0, 1}, {1}},
		{{1, 0}, {1}},
		{{1, 1}, {0}},
	}
	opt := NewAdam(0.01)
	grad := make([]float64, n.NumParams())
	rng := rand.New(rand.NewSource(5))
	for epoch := 0; epoch < 3000; epoch++ {
		Zero(grad)
		for _, idx := range rng.Perm(len(data)) {
			d := data[idx]
			out := n.Forward(d[0])
			dOut := make([]float64, 1)
			if _, err := mse(out, d[1], dOut); err != nil {
				t.Fatal(err)
			}
			n.Gradient(d[0], dOut, grad)
		}
		Scale(grad, 1.0/float64(len(data)))
		opt.Step(n.Params(), grad)
	}
	for _, d := range data {
		out := n.Forward(d[0])[0]
		if math.Abs(out-d[1][0]) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", d[0], out, d[1][0])
		}
	}
}

func TestCloneAndSetParams(t *testing.T) {
	n := mustNew(t, 9, []int{2, 3, 1}, ActReLU, ActLinear)
	c := n.Clone()
	x := []float64{0.1, 0.9}
	if n.Forward(x)[0] != c.Forward(x)[0] {
		t.Fatal("clone output differs")
	}
	// Mutating the clone must not affect the original.
	c.Params()[0] += 1
	if n.Forward(x)[0] == c.Forward(x)[0] {
		t.Error("clone shares parameter storage")
	}
	// SetParams syncs them again.
	c.SetParams(n.Params())
	if n.Forward(x)[0] != c.Forward(x)[0] {
		t.Error("SetParams did not sync")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetParams length mismatch should panic")
		}
	}()
	c.SetParams([]float64{1})
}

func TestClipGradient(t *testing.T) {
	g := []float64{3, 4} // norm 5
	norm := ClipGradient(g, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("returned norm = %v, want 5", norm)
	}
	clipped := math.Sqrt(g[0]*g[0] + g[1]*g[1])
	if math.Abs(clipped-1) > 1e-12 {
		t.Errorf("post-clip norm = %v, want 1", clipped)
	}
	// No clipping needed.
	g2 := []float64{0.3, 0.4}
	ClipGradient(g2, 1)
	if g2[0] != 0.3 || g2[1] != 0.4 {
		t.Error("small gradient should be unchanged")
	}
	// maxNorm <= 0 disables clipping.
	g3 := []float64{30, 40}
	ClipGradient(g3, 0)
	if g3[0] != 30 {
		t.Error("maxNorm=0 should not clip")
	}
}

func TestOptimizersReduceLoss(t *testing.T) {
	for name, mk := range map[string]func() *Adam{
		"adam": func() *Adam { return NewAdam(0.05) },
	} {
		t.Run(name, func(t *testing.T) {
			n := mustNew(t, 11, []int{1, 4, 1}, ActTanh, ActLinear)
			opt := mk()
			grad := make([]float64, n.NumParams())
			x := []float64{0.5}
			target := []float64{-0.3}
			lossAt := func() float64 {
				l, _ := mse(n.Forward(x), target, nil)
				return l
			}
			before := lossAt()
			for i := 0; i < 200; i++ {
				Zero(grad)
				out := n.Forward(x)
				dOut := make([]float64, 1)
				if _, err := mse(out, target, dOut); err != nil {
					t.Fatal(err)
				}
				n.Gradient(x, dOut, grad)
				opt.Step(n.Params(), grad)
			}
			if after := lossAt(); after >= before*0.1 {
				t.Errorf("%s did not reduce loss: %v -> %v", name, before, after)
			}
		})
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	n := mustNew(t, 13, []int{3, 5, 2}, ActReLU, ActTanh)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4, -0.2, 0.9}
	a, b := n.Forward(x), loaded.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs after round trip: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage should fail")
	}
}

func BenchmarkForward(b *testing.B) {
	n, err := New(1, []int{64, 128, 64, 16}, ActReLU, ActLinear)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i) / 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = n.Forward(x)
	}
}

func BenchmarkGradient(b *testing.B) {
	n, err := New(1, []int{64, 128, 64, 16}, ActReLU, ActLinear)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 64)
	dOut := make([]float64, 16)
	dOut[3] = 1
	grad := make([]float64, n.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Zero(grad)
		_ = n.Gradient(x, dOut, grad)
	}
}

// mse returns the mean squared error between prediction and target and
// writes dLoss/dPred into dOut when non-nil.
func mse(pred, target, dOut []float64) (float64, error) {
	if len(pred) != len(target) {
		return 0, fmt.Errorf("nn: mse length mismatch %d vs %d", len(pred), len(target))
	}
	loss := 0.0
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		if dOut != nil {
			dOut[i] = 2 * d / float64(len(pred))
		}
	}
	return loss / float64(len(pred)), nil
}
