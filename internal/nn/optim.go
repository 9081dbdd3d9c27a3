package nn

import (
	"fmt"
	"math"
)

// Adam is the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	m, v                  []float64
	t                     int
}

// NewAdam returns an Adam optimizer with standard defaults for any field
// left zero.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-3
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step updates params in place given the accumulated gradient.
func (a *Adam) Step(params, grad []float64) {
	if len(a.m) != len(params) {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
		a.t = 0
	}
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for i := range params {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*grad[i]
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*grad[i]*grad[i]
		mHat := a.m[i] / b1c
		vHat := a.v[i] / b2c
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
}

// State returns copies of the optimizer's moment vectors and step count,
// for checkpointing. Fresh (never-stepped) optimizers return nil slices.
func (a *Adam) State() (m, v []float64, t int) {
	if a.m != nil {
		m = append([]float64(nil), a.m...)
		v = append([]float64(nil), a.v...)
	}
	return m, v, a.t
}

// SetState restores moment vectors and step count written by State. The
// two moment slices must have equal length (both may be nil to reset a
// fresh optimizer); SetState copies them, so the caller keeps ownership.
func (a *Adam) SetState(m, v []float64, t int) error {
	if len(m) != len(v) {
		return fmt.Errorf("nn: Adam state length mismatch: %d m, %d v", len(m), len(v))
	}
	if t < 0 {
		return fmt.Errorf("nn: Adam step count %d negative", t)
	}
	if len(m) == 0 {
		a.m, a.v, a.t = nil, nil, t
		return nil
	}
	a.m = append(a.m[:0], m...)
	a.v = append(a.v[:0], v...)
	a.t = t
	return nil
}

// Zero clears a gradient buffer in place.
func Zero(grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
}

// Scale multiplies grad in place (e.g. 1/batchSize averaging).
func Scale(grad []float64, k float64) {
	for i := range grad {
		grad[i] *= k
	}
}
