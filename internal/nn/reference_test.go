package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forwardReference is the forward pass as first written: one output row
// at a time into fresh slices. The layer kernel behind ForwardInto and
// ForwardTrace is pinned against it.
func forwardReference(n *Network, x []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d != %d", len(x), n.sizes[0]))
	}
	cur := x
	for _, ll := range n.layers {
		next := make([]float64, ll.out)
		for o := 0; o < ll.out; o++ {
			sum := n.params[ll.bOff+o]
			row := ll.wOff + o*ll.in
			for i := 0; i < ll.in; i++ {
				sum += n.params[row+i] * cur[i]
			}
			next[o] = ll.act.apply(sum)
		}
		cur = next
	}
	return cur
}

// gradientReference is the training step's gradient as first written:
// a forward pass that keeps every layer's output, then a backward pass
// over every row, accumulating dLoss/dParam into grad given dOut =
// dLoss/dOutput, and returning the network output. ForwardTrace and
// Backward are pinned against it.
func gradientReference(n *Network, x, dOut, grad []float64) []float64 {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: grad length %d != %d", len(grad), len(n.params)))
	}
	if len(dOut) != n.OutputSize() {
		panic(fmt.Sprintf("nn: dOut length %d != %d", len(dOut), n.OutputSize()))
	}
	// Forward pass, keeping every layer's output.
	outs := make([][]float64, len(n.layers)+1)
	outs[0] = append([]float64(nil), x...)
	for li, ll := range n.layers {
		next := make([]float64, ll.out)
		for o := 0; o < ll.out; o++ {
			sum := n.params[ll.bOff+o]
			row := ll.wOff + o*ll.in
			for i := 0; i < ll.in; i++ {
				sum += n.params[row+i] * outs[li][i]
			}
			next[o] = ll.act.apply(sum)
		}
		outs[li+1] = next
	}
	// Backward pass.
	delta := append([]float64(nil), dOut...)
	for li := len(n.layers) - 1; li >= 0; li-- {
		ll := n.layers[li]
		out := outs[li+1]
		in := outs[li]
		// delta through the activation.
		for o := 0; o < ll.out; o++ {
			delta[o] *= ll.act.deriv(out[o])
		}
		var prevDelta []float64
		if li > 0 {
			prevDelta = make([]float64, ll.in)
		}
		for o := 0; o < ll.out; o++ {
			row := ll.wOff + o*ll.in
			grad[ll.bOff+o] += delta[o]
			for i := 0; i < ll.in; i++ {
				grad[row+i] += delta[o] * in[i]
				if prevDelta != nil {
					prevDelta[i] += delta[o] * n.params[row+i]
				}
			}
		}
		delta = prevDelta
	}
	return outs[len(outs)-1]
}

// kernelShapes covers output counts below, at and past a multiple of
// four (the layer kernel's remainder loop), a single-layer network and
// MobiRescue's 17→64→64→8 Q-network.
var kernelShapes = [][]int{
	{3, 5},
	{4, 8, 2},
	{6, 64, 64, 9},
	{2, 3, 7, 5, 1},
	{17, 64, 64, 8},
	{5, 7, 5, 8},
}

// randomize fills the biases too (New leaves them at zero), so every
// term of every sum is exercised.
func randomize(n *Network, rng *rand.Rand) {
	for i := range n.params {
		n.params[i] = rng.NormFloat64()
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestForwardIntoMatchesReference pins ForwardInto and ForwardTrace bit
// for bit to the row-at-a-time loop across shapes and activations.
func TestForwardIntoMatchesReference(t *testing.T) {
	for _, sizes := range kernelShapes {
		for _, acts := range [][2]Act{{ActReLU, ActLinear}, {ActTanh, ActLinear}, {ActSigmoid, ActTanh}} {
			net := mustNew(t, 42, sizes, acts[0], acts[1])
			rng := rand.New(rand.NewSource(7))
			randomize(net, rng)
			scratch := net.NewScratch()
			trace := make([]float64, net.TraceSize())
			for trial := 0; trial < 50; trial++ {
				x := make([]float64, sizes[0])
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				want := forwardReference(net, x)
				if got := net.ForwardInto(x, scratch); !sameBits(got, want) {
					t.Fatalf("shape %v acts %v: ForwardInto %v != reference %v", sizes, acts, got, want)
				}
				if got := net.ForwardTrace(x, trace); !sameBits(got, want) {
					t.Fatalf("shape %v acts %v: ForwardTrace %v != reference %v", sizes, acts, got, want)
				}
				if !sameBits(trace[:len(x)], x) {
					t.Fatalf("shape %v: trace does not start with the input", sizes)
				}
			}
		}
	}
}

// TestBackwardMatchesReference pins ForwardTrace+Backward bit for bit to
// the reference gradient: grad accumulated over several samples, with
// output deltas that are exactly zero (skipped rows), negative zero,
// and nonzero, across shapes and activations.
func TestBackwardMatchesReference(t *testing.T) {
	for _, sizes := range kernelShapes {
		for _, acts := range [][2]Act{{ActReLU, ActLinear}, {ActTanh, ActLinear}, {ActSigmoid, ActTanh}} {
			net := mustNew(t, 3, sizes, acts[0], acts[1])
			rng := rand.New(rand.NewSource(11))
			randomize(net, rng)
			out := net.OutputSize()
			got := make([]float64, net.NumParams())
			want := make([]float64, net.NumParams())
			trace := make([]float64, net.TraceSize())
			scratch := net.NewScratch()
			dOut := make([]float64, out)
			for sample := 0; sample < 20; sample++ {
				x := make([]float64, sizes[0])
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				for o := range dOut {
					switch rng.Intn(4) {
					case 0:
						dOut[o] = 0
					case 1:
						dOut[o] = math.Copysign(0, -1)
					default:
						dOut[o] = rng.NormFloat64()
					}
				}
				keep := append([]float64(nil), dOut...)
				y := gradientReference(net, x, dOut, want)
				if q := net.ForwardTrace(x, trace); !sameBits(q, y) {
					t.Fatalf("shape %v acts %v sample %d: ForwardTrace %v != reference %v", sizes, acts, sample, q, y)
				}
				net.Backward(trace, dOut, got, scratch)
				if !sameBits(dOut, keep) {
					t.Fatalf("shape %v: Backward wrote to dOut", sizes)
				}
				if !sameBits(got, want) {
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("shape %v acts %v sample %d param %d: Backward %v != reference %v",
								sizes, acts, sample, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestTraceBackwardZeroAlloc is the 0 allocs/op contract for the
// learner's per-sample forward and backward pass.
func TestTraceBackwardZeroAlloc(t *testing.T) {
	net := mustNew(t, 1, []int{17, 64, 64, 8}, ActReLU, ActLinear)
	trace := make([]float64, net.TraceSize())
	scratch := net.NewScratch()
	grad := make([]float64, net.NumParams())
	x := make([]float64, 17)
	dOut := make([]float64, 8)
	dOut[3] = 1
	if n := testing.AllocsPerRun(200, func() {
		net.ForwardTrace(x, trace)
		net.Backward(trace, dOut, grad, scratch)
	}); n != 0 {
		t.Fatalf("ForwardTrace+Backward allocate %v/op, want 0", n)
	}
}

// TestTraceBackwardPanics pins the programmer-error contracts.
func TestTraceBackwardPanics(t *testing.T) {
	net := mustNew(t, 1, []int{4, 8, 2}, ActReLU, ActLinear)
	trace := make([]float64, net.TraceSize())
	grad := make([]float64, net.NumParams())
	dOut := make([]float64, 2)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("bad input", func() { net.ForwardTrace(make([]float64, 3), trace) })
	expectPanic("small trace", func() { net.ForwardTrace(make([]float64, 4), trace[:len(trace)-1]) })
	expectPanic("bad grad", func() { net.Backward(trace, dOut, grad[1:], net.NewScratch()) })
	expectPanic("bad dOut", func() { net.Backward(trace, dOut[1:], grad, net.NewScratch()) })
	expectPanic("small trace for Backward", func() { net.Backward(trace[1:], dOut, grad, net.NewScratch()) })
	expectPanic("small scratch", func() { net.Backward(trace, dOut, grad, make([]float64, net.ScratchSize()-1)) })
}
