package svm

import (
	"math"
	"sync"
)

// fastState is the inference-optimized form of a trained model, built
// once by finalize (at the end of Train and Load) and immutable
// afterwards. It exists so the per-query hot path — PredictProvider
// evaluating every person every 5-minute window — does zero heap
// allocations and touches contiguous memory:
//
//   - Linear kernel: the scaler and the support-vector expansion are
//     folded into a single raw-space weight vector, so a decision is one
//     O(d) dot product over the caller's unscaled features.
//   - RBF kernel: the scaled support vectors are flattened into one
//     contiguous []float64 with precomputed squared norms, so each
//     kernel evaluation is a dot product plus the identity
//     ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b (no per-SV subtraction
//     loop, no bounds-check-hostile [][]float64 walk).
type fastState struct {
	dims int
	// Linear fold: decision(x) = rawB + sum_j rawW[j]*x[j] over the raw
	// (unscaled) features. nil for non-linear kernels.
	rawW []float64
	rawB float64
	// RBF flattening: flat holds the scaled SVs row-major (nSV x dims),
	// norm their squared norms, coef alpha_i*y_i. nil for linear.
	flat  []float64
	norm  []float64
	coef  []float64
	gamma float64
	// mean/invStd fold the scaler into the workspace transform
	// ((x-mean)*invStd) without a divide per feature.
	mean   []float64
	invStd []float64
}

// finalize precomputes the fast inference state from the trained
// support-vector expansion. It must be called whenever svX/svY/alpha/
// bias/scaler change (Train and Load do).
func (m *Model) finalize() {
	if len(m.svX) == 0 {
		m.fast = nil
		return
	}
	d := len(m.svX[0])
	fs := &fastState{dims: d}

	// Fold the scaler. A missing scaler (len(Mean)==0) means identity.
	fs.mean = make([]float64, d)
	fs.invStd = make([]float64, d)
	for j := 0; j < d; j++ {
		fs.invStd[j] = 1
		if m.scaler != nil && j < len(m.scaler.Mean) {
			fs.mean[j] = m.scaler.Mean[j]
			fs.invStd[j] = 1 / m.scaler.Std[j]
		}
	}

	switch k := m.kernel.(type) {
	case Linear:
		// decision(x) = bias + sum_i coef_i <sv_i, xs>
		//             = bias + sum_j W_j * (v_j - mean_j)/std_j
		// with W_j = sum_i coef_i sv_ij and v_j = x_j (0 beyond len(x)),
		// which folds to rawB + sum_j rawW_j * x_j.
		w := make([]float64, d)
		for i := range m.svX {
			c := m.alpha[i] * m.svY[i]
			for j := 0; j < d; j++ {
				w[j] += c * m.svX[i][j]
			}
		}
		fs.rawW = make([]float64, d)
		fs.rawB = m.bias
		for j := 0; j < d; j++ {
			fs.rawW[j] = w[j] * fs.invStd[j]
			fs.rawB -= w[j] * fs.mean[j] * fs.invStd[j]
		}
	case RBF:
		fs.gamma = k.Gamma
		fs.flat = make([]float64, len(m.svX)*d)
		fs.norm = make([]float64, len(m.svX))
		fs.coef = make([]float64, len(m.svX))
		for i, sv := range m.svX {
			copy(fs.flat[i*d:(i+1)*d], sv)
			n2 := 0.0
			for _, v := range sv {
				n2 += v * v
			}
			fs.norm[i] = n2
			fs.coef[i] = m.alpha[i] * m.svY[i]
		}
	default:
		// Unknown kernel: no fast path; Decision falls back to the
		// reference implementation.
		m.fast = fs
		return
	}
	m.fast = fs
}

// Workspace holds the scratch buffers DecisionInto needs so repeated
// decisions allocate nothing. A Workspace may be reused across models
// (it grows on demand) but must not be shared between goroutines;
// create one per worker.
type Workspace struct {
	scaled []float64
}

// NewWorkspace returns an empty workspace; DecisionInto sizes it on
// first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// grow returns the workspace's scaled buffer with length n, reallocating
// only when capacity is insufficient (steady state: zero allocations).
func (ws *Workspace) grow(n int) []float64 {
	if cap(ws.scaled) < n {
		ws.scaled = make([]float64, n)
	}
	return ws.scaled[:n]
}

// wsPool backs the workspace-less Decision/Predict entry points so they
// stay concurrency-safe and allocation-free in steady state.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// DecisionInto returns the signed margin for a raw (unscaled) feature
// vector using the precomputed fast path and the caller-owned workspace.
// It performs zero heap allocations in steady state (benchmark-pinned by
// BenchmarkDecisionInto / TestDecisionIntoZeroAlloc). Features beyond
// the model's dimensionality are ignored; missing features are treated
// as zero, matching Scaler.Transform.
func (m *Model) DecisionInto(ws *Workspace, x []float64) float64 {
	m.predictions.Inc()
	fs := m.fast
	if fs == nil {
		return m.decisionReference(x)
	}
	if fs.rawW != nil {
		// Linear: one dot product in raw feature space.
		s := fs.rawB
		n := len(x)
		if n > fs.dims {
			n = fs.dims
		}
		for j := 0; j < n; j++ {
			s += fs.rawW[j] * x[j]
		}
		return s
	}
	if fs.flat == nil {
		// Unknown kernel: reference path.
		return m.decisionReference(x)
	}
	// RBF: scale once, then contiguous kernel sums via the norm identity.
	d := fs.dims
	xs := ws.grow(d)
	xn := 0.0
	for j := 0; j < d; j++ {
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		sv := (v - fs.mean[j]) * fs.invStd[j]
		xs[j] = sv
		xn += sv * sv
	}
	s := m.bias
	flat := fs.flat
	for i, c := range fs.coef {
		row := flat[i*d : i*d+d]
		dot := 0.0
		for j, v := range row {
			dot += v * xs[j]
		}
		s += c * math.Exp(-fs.gamma*(fs.norm[i]+xn-2*dot))
	}
	return s
}

// PredictInto is the zero-allocation form of Predict over a caller-owned
// workspace.
func (m *Model) PredictInto(ws *Workspace, x []float64) bool {
	return m.DecisionInto(ws, x) >= 0
}

// DecisionReference is the pre-fast-path implementation — a generic
// kernel sum over the [][]float64 support vectors after an allocating
// scaler transform. It is retained as the equivalence oracle for the
// fast path: TestFastDecisionMatchesReference here, and core's
// reference prediction loop in its tests.
func (m *Model) DecisionReference(x []float64) float64 {
	m.predictions.Inc()
	return m.decisionReference(x)
}

func (m *Model) decisionReference(x []float64) float64 {
	xs := m.scaler.Transform(x)
	s := m.bias
	for i := range m.svX {
		s += m.alpha[i] * m.svY[i] * m.kernel.Compute(m.svX[i], xs)
	}
	return s
}
