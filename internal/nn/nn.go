// Package nn implements small dense feed-forward neural networks with
// backpropagation and the Adam optimizer, written from scratch on the
// standard library. MobiRescue's RL dispatcher (Section IV-C4, following
// Pensieve [24]) uses these networks as Q-function approximators; Go has
// no ML ecosystem to lean on, so the substrate lives here.
//
// One layer kernel computes every forward pass: ForwardInto for a
// decision, ForwardTrace for a training sample, whose kept activations
// Backward turns into a gradient without a second forward pass. All
// three work in caller-owned buffers and allocate nothing.
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
// value is not usable. ForwardInto, ForwardTrace and Backward only read
// the network, so concurrent callers may share it with one set of
// buffers each; parameter mutation (SetParams, an optimizer step on
// Params) is not safe alongside them.
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

// ScratchSize returns the scratch length ForwardInto and Backward
// require: two ping-pong buffers of the widest non-input layer.
func (n *Network) ScratchSize() int {
	w := 0
	for _, ll := range n.layers {
		if ll.out > w {
			w = ll.out
		}
	}
	return 2 * w
}

// NewScratch allocates a scratch buffer sized for ForwardInto and
// Backward.
func (n *Network) NewScratch() []float64 { return make([]float64, n.ScratchSize()) }

// TraceSize returns the acts length ForwardTrace requires: the input and
// every layer's output, end to end.
func (n *Network) TraceSize() int {
	s := 0
	for _, v := range n.sizes {
		s += v
	}
	return s
}

// layer is the one forward kernel: it writes y[o] = act(b[o] + Σ_i
// w[o][i]·x[i]) for one layer, four output rows per pass over x. The
// four sums are independent, so their adds do not form one serial
// chain. Each sum starts from the bias and adds the products in
// input-index order, the floating-point order of a loop over one row at
// a time, so the outputs are bit-identical to it; a remainder loop
// handles the rows past a multiple of four.
func (n *Network) layer(ll layerLayout, x, y []float64) {
	in := ll.in
	x = x[:in]
	y = y[:ll.out]
	w := n.params[ll.wOff : ll.wOff+in*ll.out]
	b := n.params[ll.bOff : ll.bOff+ll.out]
	o := 0
	for ; o+4 <= len(y); o += 4 {
		w0 := w[o*in:][:len(x)]
		w1 := w[(o+1)*in:][:len(x)]
		w2 := w[(o+2)*in:][:len(x)]
		w3 := w[(o+3)*in:][:len(x)]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		y[o] = ll.act.apply(s0)
		y[o+1] = ll.act.apply(s1)
		y[o+2] = ll.act.apply(s2)
		y[o+3] = ll.act.apply(s3)
	}
	for ; o < len(y); o++ {
		row := w[o*in:][:len(x)]
		sum := b[o]
		for i, xi := range x {
			sum += row[i] * xi
		}
		y[o] = ll.act.apply(sum)
	}
}

// ForwardInto computes the network output for x using the caller-owned
// scratch buffer and returns a slice aliasing scratch (valid until the
// next ForwardInto call with the same buffer). It performs zero heap
// allocations. It panics on an input-size mismatch or an undersized
// scratch (programmer error); scratch must hold at least ScratchSize()
// elements. Concurrent callers over a shared (read-only) network need
// one scratch each.
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
		n.layer(ll, cur, next)
		cur = next
	}
	return cur
}

// ForwardTrace computes the network output for x as ForwardInto does and
// keeps what Backward reads in the caller-owned acts buffer: x, then
// every layer's output in order (TraceSize elements). It returns the
// output, a slice aliasing acts. It performs zero heap allocations and
// panics on an input-size mismatch or an undersized acts (programmer
// error).
func (n *Network) ForwardTrace(x, acts []float64) []float64 {
	if len(x) != n.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d != %d", len(x), n.sizes[0]))
	}
	if len(acts) < n.TraceSize() {
		panic(fmt.Sprintf("nn: trace size %d < %d", len(acts), n.TraceSize()))
	}
	cur := acts[:copy(acts, x)]
	off := len(cur)
	for _, ll := range n.layers {
		next := acts[off : off+ll.out]
		n.layer(ll, cur, next)
		cur = next
		off += ll.out
	}
	return cur
}

// Backward backpropagates dOut = dLoss/dOutput for the sample whose
// ForwardTrace is in acts and adds dLoss/dParam to grad (length
// NumParams). dOut and acts are only read; scratch holds the deltas and
// must have ScratchSize elements. It performs zero heap allocations and
// panics on a length mismatch (programmer error).
//
// A row whose delta is exactly zero (an output the loss does not touch,
// a ReLU unit that is off) is skipped. The skip is exact when grad holds
// no −0 (Zero and make leave +0) and the activations and weights are
// finite: grad and the propagated deltas start at +0 and only
// accumulate, so neither is ever −0, and adding ±0·x to such a value
// leaves it unchanged for finite x.
func (n *Network) Backward(acts, dOut, grad, scratch []float64) {
	if len(grad) != len(n.params) {
		panic(fmt.Sprintf("nn: grad length %d != %d", len(grad), len(n.params)))
	}
	if len(dOut) != n.OutputSize() {
		panic(fmt.Sprintf("nn: dOut length %d != %d", len(dOut), n.OutputSize()))
	}
	if len(acts) < n.TraceSize() {
		panic(fmt.Sprintf("nn: trace size %d < %d", len(acts), n.TraceSize()))
	}
	if len(scratch) < n.ScratchSize() {
		panic(fmt.Sprintf("nn: scratch size %d < %d", len(scratch), n.ScratchSize()))
	}
	half := len(scratch) / 2
	bufA, bufB := scratch[:half], scratch[half:]
	delta := bufA[:copy(bufA, dOut)]
	end := n.TraceSize()
	for li := len(n.layers) - 1; li >= 0; li-- {
		ll := n.layers[li]
		out := acts[end-ll.out : end]
		end -= ll.out
		in := acts[end-ll.in : end]
		// delta through the activation.
		for o := range delta {
			delta[o] *= ll.act.deriv(out[o])
		}
		var prev []float64
		if li > 0 {
			prev = bufB[:ll.in]
			Zero(prev)
		}
		w := n.params[ll.wOff : ll.wOff+ll.in*ll.out]
		gw := grad[ll.wOff : ll.wOff+ll.in*ll.out]
		gb := grad[ll.bOff : ll.bOff+ll.out]
		for o, d := range delta {
			if d == 0 {
				continue
			}
			gb[o] += d
			grow := gw[o*ll.in:][:len(in)]
			for i, xi := range in {
				grow[i] += d * xi
			}
			if prev != nil {
				row := w[o*ll.in:][:len(prev)]
				for i, wi := range row {
					prev[i] += d * wi
				}
			}
		}
		delta = prev
		bufA, bufB = bufB, bufA
	}
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
