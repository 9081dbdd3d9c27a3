package svm

// finalize precomputes a linear model's inference form from the trained
// support-vector expansion; Train calls it once. The scaler and the
// expansion fold into one raw-space weight vector, so the per-query hot
// path — PredictProvider evaluating every person every 5-minute window
// — is one O(d) dot product over the caller's unscaled features, with
// no heap allocation:
//
//	decision(x) = bias + Σ_i coef_i <sv_i, xs>
//	            = bias + Σ_j W_j (v_j − mean_j)/std_j
//
// with W_j = Σ_i coef_i sv_ij and v_j = x_j (0 beyond len(x)), which
// folds to rawB + Σ_j rawW_j x_j. Any other kernel keeps rawW nil and
// decides through the kernel sum (decisionReference).
func (m *Model) finalize() {
	m.rawW, m.rawB = nil, 0
	if _, ok := m.kernel.(Linear); !ok || len(m.svX) == 0 {
		return
	}
	d := len(m.svX[0])
	w := make([]float64, d)
	for i := range m.svX {
		c := m.alpha[i] * m.svY[i]
		for j := 0; j < d; j++ {
			w[j] += c * m.svX[i][j]
		}
	}
	m.rawW = make([]float64, d)
	m.rawB = m.bias
	for j := 0; j < d; j++ {
		// A missing scaler (len(Mean)==0) means identity.
		mean, invStd := 0.0, 1.0
		if m.scaler != nil && j < len(m.scaler.Mean) {
			mean, invStd = m.scaler.Mean[j], 1/m.scaler.Std[j]
		}
		m.rawW[j] = w[j] * invStd
		m.rawB -= w[j] * mean * invStd
	}
}

// Decision returns the signed margin for a raw (unscaled) feature
// vector. A linear model evaluates its folded weights (see finalize):
// one dot product, zero heap allocations (TestDecisionZeroAlloc). Any
// other kernel sums the support-vector expansion. Features beyond the
// model's dimensionality are ignored; missing features are treated as
// zero, matching Scaler.Transform. Safe for concurrent use.
func (m *Model) Decision(x []float64) float64 {
	m.predictions.Inc()
	if m.rawW == nil {
		return m.decisionReference(x)
	}
	s := m.rawB
	n := min(len(x), len(m.rawW))
	for j := 0; j < n; j++ {
		s += m.rawW[j] * x[j]
	}
	return s
}

// LinearWeights returns the raw-space weights and bias Decision folds a
// linear model into: its margin is b + Σ_j w[j]·x[j] over the unscaled
// features, summed in that order. ok is false for any other kernel. The
// slice is shared and must not be mutated.
func (m *Model) LinearWeights() (w []float64, b float64, ok bool) {
	if m.rawW == nil {
		return nil, 0, false
	}
	return m.rawW, m.rawB, true
}

// DecisionReference is the generic kernel sum over the [][]float64
// support vectors after an allocating scaler transform — the
// pre-fast-path implementation. It is retained as the equivalence
// oracle for the linear fold: TestFastDecisionMatchesReference here, and
// core's reference prediction loop in its tests.
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
