// Package nn implements small dense feed-forward neural networks with
// backpropagation and the Adam optimizer, written from scratch on the
// standard library. MobiRescue's RL dispatcher (Section IV-C4, following
// Pensieve [24]) uses these networks as Q-function approximators; Go has
// no ML ecosystem to lean on, so the substrate lives here.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Act selects a layer activation.
type Act uint8

// Supported activations.
const (
	ActLinear Act = iota + 1
	ActReLU
	ActTanh
	ActSigmoid
)

func (a Act) apply(x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActTanh:
		return math.Tanh(x)
	case ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	default:
		return x
	}
}

// derivative given the activation output y (all supported activations
// admit this form).
func (a Act) deriv(y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActTanh:
		return 1 - y*y
	case ActSigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// layerLayout locates one layer's parameters in the flat parameter
// vector.
type layerLayout struct {
	in, out    int
	wOff, bOff int
	act        Act
}

// Network is a dense feed-forward network. Construct with New; the zero
// value is not usable. Forward is safe for concurrent use; Gradient and
// parameter mutation are not.
type Network struct {
	sizes  []int
	layers []layerLayout
	params []float64
}

// New builds a network with the given layer sizes (inputs first, outputs
// last), hidden activation for all hidden layers and outAct on the final
// layer. Weights use He/Xavier-style initialization driven by seed.
func New(seed int64, sizes []int, hidden, outAct Act) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("nn: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer size %d invalid", s)
		}
	}
	n := &Network{sizes: append([]int(nil), sizes...)}
	total := 0
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		act := hidden
		if l+2 == len(sizes) {
			act = outAct
		}
		n.layers = append(n.layers, layerLayout{
			in: in, out: out, wOff: total, bOff: total + in*out, act: act,
		})
		total += in*out + out
	}
	n.params = make([]float64, total)
	rng := rand.New(rand.NewSource(seed))
	for _, ll := range n.layers {
		scale := math.Sqrt(2.0 / float64(ll.in)) // He init (good for ReLU)
		if ll.act == ActTanh || ll.act == ActSigmoid {
			scale = math.Sqrt(1.0 / float64(ll.in))
		}
		for i := 0; i < ll.in*ll.out; i++ {
			n.params[ll.wOff+i] = rng.NormFloat64() * scale
		}
		// Biases start at zero.
	}
	return n, nil
}

// InputSize returns the expected input dimension.
func (n *Network) InputSize() int { return n.sizes[0] }

// OutputSize returns the output dimension.
func (n *Network) OutputSize() int { return n.sizes[len(n.sizes)-1] }

// NumParams returns the total parameter count.
func (n *Network) NumParams() int { return len(n.params) }

// Params returns the live parameter vector; mutating it mutates the
// network (this is how optimizers apply updates).
func (n *Network) Params() []float64 { return n.params }

// SetParams copies src into the network's parameters. It panics on a
// length mismatch, which indicates programmer error.
func (n *Network) SetParams(src []float64) {
	if len(src) != len(n.params) {
		panic(fmt.Sprintf("nn: SetParams length %d != %d", len(src), len(n.params)))
	}
	copy(n.params, src)
}

// Clone returns a deep copy (used for DQN target networks).
func (n *Network) Clone() *Network {
	c := &Network{
		sizes:  append([]int(nil), n.sizes...),
		layers: append([]layerLayout(nil), n.layers...),
		params: append([]float64(nil), n.params...),
	}
	return c
}

// Forward computes the network output for x into a fresh slice. It
// panics on an input-size mismatch, which indicates programmer error.
// Hot loops (DQN action selection, actor rollouts) should prefer
// ForwardInto with a reused scratch buffer, which allocates nothing.
func (n *Network) Forward(x []float64) []float64 {
	out := make([]float64, n.OutputSize())
	copy(out, n.ForwardInto(x, make([]float64, n.ScratchSize())))
	return out
}

// ScratchSize returns the scratch length ForwardInto requires: two
// ping-pong buffers of the widest non-input layer.
func (n *Network) ScratchSize() int {
	w := 0
	for _, ll := range n.layers {
		if ll.out > w {
			w = ll.out
		}
	}
	return 2 * w
}

// NewScratch allocates a scratch buffer sized for ForwardInto.
func (n *Network) NewScratch() []float64 { return make([]float64, n.ScratchSize()) }

// ForwardInto computes the network output for x using the caller-owned
// scratch buffer and returns a slice aliasing scratch (valid until the
// next ForwardInto call with the same buffer). It performs zero heap
// allocations and computes bit-identical values to Forward. It panics
// on an input-size mismatch or an undersized scratch (programmer
// error); scratch must hold at least ScratchSize() elements. Concurrent
// callers over a shared (read-only) network need one scratch each.
func (n *Network) ForwardInto(x, scratch []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d != %d", len(x), n.sizes[0]))
	}
	if len(scratch) < n.ScratchSize() {
		panic(fmt.Sprintf("nn: scratch size %d < %d", len(scratch), n.ScratchSize()))
	}
	half := len(scratch) / 2
	bufA, bufB := scratch[:half], scratch[half:]
	cur := x
	for _, ll := range n.layers {
		next := bufA[:ll.out]
		if &cur[0] == &bufA[0] {
			next = bufB[:ll.out]
		}
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

// Gradient runs forward and backward for one sample, accumulating
// dLoss/dParam into grad given dOut = dLoss/dOutput, and returns the
// network output. grad must have length NumParams.
func (n *Network) Gradient(x, dOut, grad []float64) []float64 {
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

// ClipGradient scales grad in place so its L2 norm does not exceed
// maxNorm, returning the pre-clip norm.
func ClipGradient(grad []float64, maxNorm float64) float64 {
	sum := 0.0
	for _, g := range grad {
		sum += g * g
	}
	norm := math.Sqrt(sum)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for i := range grad {
			grad[i] *= scale
		}
	}
	return norm
}
