// Package svm implements a Support Vector Machine classifier trained
// with a simplified Sequential Minimal Optimization (SMO) algorithm,
// supporting linear and RBF kernels. MobiRescue uses it to map a
// person's disaster-related factor vector (precipitation, wind speed,
// altitude) to a rescue decision (Section IV-B, Equation 1).
//
// The implementation is self-contained (stdlib only) because the paper's
// substrate (scikit-learn-class SVMs) has no Go equivalent.
package svm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mobirescue/internal/obs"
)

// Exported SVM metric names (see README "Observability").
const (
	MetricTrainPasses  = "mobirescue_svm_train_passes_total"
	MetricAlphaUpdates = "mobirescue_svm_alpha_updates_total"
	MetricSupportVecs  = "mobirescue_svm_support_vectors"
	MetricPredictions  = "mobirescue_svm_predictions_total"
)

// Kernel computes the inner product of two feature vectors in the
// kernel-induced space.
type Kernel interface {
	Compute(a, b []float64) float64
}

// Linear is the standard dot-product kernel.
type Linear struct{}

var _ Kernel = Linear{}

// Compute implements Kernel.
func (Linear) Compute(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// RBF is the Gaussian radial-basis-function kernel
// K(a,b) = exp(-gamma * ||a-b||^2).
type RBF struct {
	Gamma float64
}

var _ Kernel = RBF{}

// Compute implements Kernel.
func (k RBF) Compute(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-k.Gamma * s)
}

// Config controls SMO training.
type Config struct {
	// C is the soft-margin regularization parameter.
	C float64
	// Tol is the KKT violation tolerance.
	Tol float64
	// MaxPasses is how many consecutive full passes without any alpha
	// update end training.
	MaxPasses int
	// MaxIter hard-caps the number of passes.
	MaxIter int
	// Kernel defaults to RBF with gamma = 1/dims.
	Kernel Kernel
	// Seed drives the SMO partner-selection randomness.
	Seed int64
	// Metrics, when non-nil, receives training telemetry (SMO passes,
	// alpha updates, support-vector count). Nil — the default — is free.
	Metrics *obs.Registry
}

// DefaultConfig returns sensible training defaults.
func DefaultConfig() Config {
	return Config{C: 1.0, Tol: 1e-3, MaxPasses: 5, MaxIter: 200, Seed: 1}
}

// Model is a trained SVM. Construct with Train or Load; the zero value is
// not usable. Model is safe for concurrent use once trained.
type Model struct {
	kernel Kernel
	svX    [][]float64
	svY    []float64 // ±1
	alpha  []float64
	bias   float64
	scaler *Scaler

	// rawW and rawB fold a linear model's scaler and support vectors
	// into raw-space weights (see finalize); rawW is nil for any other
	// kernel.
	rawW []float64
	rawB float64

	predictions *obs.Counter // nil (free) unless EnableMetrics is called
}

// EnableMetrics registers a prediction counter with reg. The counter is
// atomic, preserving the model's concurrency safety. Nil reg is a no-op.
func (m *Model) EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.predictions = reg.Counter(MetricPredictions, "SVM Predict/Decision evaluations.")
	reg.Gauge(MetricSupportVecs, "Support vectors retained by the trained model.").Set(float64(m.NumSVs()))
}

// ErrBadTrainingSet is returned for degenerate training inputs.
var ErrBadTrainingSet = errors.New("svm: bad training set")

// Train fits an SVM to the labeled examples (y true = positive class).
// Features are standardized internally; pass raw factor vectors.
func Train(x [][]float64, y []bool, cfg Config) (*Model, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("%w: %d examples vs %d labels", ErrBadTrainingSet, len(x), len(y))
	}
	if len(x) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 examples", ErrBadTrainingSet)
	}
	dims := len(x[0])
	if dims == 0 {
		return nil, fmt.Errorf("%w: empty feature vectors", ErrBadTrainingSet)
	}
	var hasPos, hasNeg bool
	for i := range x {
		if len(x[i]) != dims {
			return nil, fmt.Errorf("%w: inconsistent dimensions", ErrBadTrainingSet)
		}
		if y[i] {
			hasPos = true
		} else {
			hasNeg = true
		}
	}
	if !hasPos || !hasNeg {
		return nil, fmt.Errorf("%w: need both classes", ErrBadTrainingSet)
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPasses <= 0 {
		cfg.MaxPasses = 5
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 200
	}
	if cfg.Kernel == nil {
		cfg.Kernel = RBF{Gamma: 1.0 / float64(dims)}
	}

	scaler := FitScaler(x)
	n := len(x)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range x {
		xs[i] = scaler.Transform(x[i])
		if y[i] {
			ys[i] = 1
		} else {
			ys[i] = -1
		}
	}

	alpha := make([]float64, n)
	b := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed))

	// f computes the decision value for training example i.
	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] > 0 {
				s += alpha[j] * ys[j] * cfg.Kernel.Compute(xs[j], xs[i])
			}
		}
		return s
	}

	mPasses := cfg.Metrics.Counter(MetricTrainPasses, "Full SMO passes over the training set.")
	mUpdates := cfg.Metrics.Counter(MetricAlphaUpdates, "Alpha pair updates applied during SMO training.")
	passes := 0
	for iter := 0; passes < cfg.MaxPasses && iter < cfg.MaxIter; iter++ {
		mPasses.Inc()
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - ys[i]
			if !((ys[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (ys[i]*ei > cfg.Tol && alpha[i] > 0)) {
				continue
			}
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - ys[j]
			aiOld, ajOld := alpha[i], alpha[j]
			var lo, hi float64
			if ys[i] != ys[j] {
				lo = math.Max(0, ajOld-aiOld)
				hi = math.Min(cfg.C, cfg.C+ajOld-aiOld)
			} else {
				lo = math.Max(0, aiOld+ajOld-cfg.C)
				hi = math.Min(cfg.C, aiOld+ajOld)
			}
			if lo == hi {
				continue
			}
			kii := cfg.Kernel.Compute(xs[i], xs[i])
			kjj := cfg.Kernel.Compute(xs[j], xs[j])
			kij := cfg.Kernel.Compute(xs[i], xs[j])
			eta := 2*kij - kii - kjj
			if eta >= 0 {
				continue
			}
			aj := ajOld - ys[j]*(ei-ej)/eta
			if aj > hi {
				aj = hi
			} else if aj < lo {
				aj = lo
			}
			if math.Abs(aj-ajOld) < 1e-5 {
				continue
			}
			ai := aiOld + ys[i]*ys[j]*(ajOld-aj)
			b1 := b - ei - ys[i]*(ai-aiOld)*kii - ys[j]*(aj-ajOld)*kij
			b2 := b - ej - ys[i]*(ai-aiOld)*kij - ys[j]*(aj-ajOld)*kjj
			switch {
			case ai > 0 && ai < cfg.C:
				b = b1
			case aj > 0 && aj < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			alpha[i], alpha[j] = ai, aj
			changed++
			mUpdates.Inc()
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Keep only support vectors.
	m := &Model{kernel: cfg.Kernel, bias: b, scaler: scaler}
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			m.svX = append(m.svX, xs[i])
			m.svY = append(m.svY, ys[i])
			m.alpha = append(m.alpha, alpha[i])
		}
	}
	if len(m.svX) == 0 {
		return nil, fmt.Errorf("%w: training produced no support vectors", ErrBadTrainingSet)
	}
	m.finalize()
	return m, nil
}

// Predict returns the class for a raw feature vector: true for the
// positive class ("should be rescued").
func (m *Model) Predict(x []float64) bool { return m.Decision(x) >= 0 }

// NumSVs returns the number of support vectors retained.
func (m *Model) NumSVs() int { return len(m.svX) }

// Scaler standardizes features to zero mean and unit variance.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes per-dimension statistics over x.
func FitScaler(x [][]float64) *Scaler {
	if len(x) == 0 {
		return &Scaler{}
	}
	d := len(x[0])
	s := &Scaler{Mean: make([]float64, d), Std: make([]float64, d)}
	for _, row := range x {
		for j := 0; j < d && j < len(row); j++ {
			s.Mean[j] += row[j]
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j := 0; j < d && j < len(row); j++ {
			diff := row[j] - s.Mean[j]
			s.Std[j] += diff * diff
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / float64(len(x)))
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1 // constant feature: leave centered only
		}
	}
	return s
}

// Transform standardizes one vector, returning a new slice.
func (s *Scaler) Transform(x []float64) []float64 {
	if len(s.Mean) == 0 {
		return append([]float64(nil), x...)
	}
	out := make([]float64, len(s.Mean))
	for j := range out {
		v := 0.0
		if j < len(x) {
			v = x[j]
		}
		out[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return out
}
