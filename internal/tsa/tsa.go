// Package tsa implements the time-series demand predictor used by the
// paper's Rescue baseline [8]: the predicted rescue-request demand for a
// key (road segment) at an hour of day is the recency-weighted average of
// the observed demand at that same hour over the previous days. Unlike
// MobiRescue's SVM it ignores disaster-related factors, which is exactly
// the weakness the paper's Figures 15–16 expose.
package tsa

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// Predictor accumulates hourly observations per key and predicts future
// demand via exponentially weighted same-hour history. The zero value is
// not usable; construct with New.
type Predictor struct {
	days  int
	decay float64
	// hist[key] holds hourly observations indexed by absolute hour.
	hist map[int][]float64
}

// New returns a Predictor averaging over the last days days with weight
// decay^k for an observation k days back. days must be positive and
// decay in (0, 1].
func New(days int, decay float64) (*Predictor, error) {
	if days <= 0 {
		return nil, fmt.Errorf("tsa: days %d must be positive", days)
	}
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("tsa: decay %v must be in (0,1]", decay)
	}
	return &Predictor{days: days, decay: decay, hist: make(map[int][]float64)}, nil
}

// Observe records the demand for key during the absolute hour slot
// (hours since the window start). Negative hours are ignored.
func (p *Predictor) Observe(key, hour int, demand float64) {
	if hour < 0 {
		return
	}
	h := p.hist[key]
	for len(h) <= hour {
		h = append(h, 0)
	}
	h[hour] += demand
	p.hist[key] = h
}

// Predict estimates the demand for key at the absolute hour slot using
// the same hour-of-day in up to the configured number of previous days.
// Hours with no recorded history predict zero.
func (p *Predictor) Predict(key, hour int) float64 {
	h, ok := p.hist[key]
	if !ok || hour < 0 {
		return 0
	}
	var num, den float64
	w := 1.0
	for d := 1; d <= p.days; d++ {
		idx := hour - 24*d
		if idx < 0 {
			break
		}
		if idx < len(h) {
			num += w * h[idx]
			den += w
		}
		w *= p.decay
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Keys returns the number of distinct keys observed.
func (p *Predictor) Keys() int { return len(p.hist) }

// histWire is one key's history in a captured state.
type histWire struct {
	Key int
	Obs []float64
}

// CaptureState serializes the predictor's accumulated history (days and
// decay are construction parameters, not state) for crash-safe
// snapshots. Keys are written in ascending order, so equal histories
// give equal bytes.
func (p *Predictor) CaptureState() ([]byte, error) {
	keys := make([]int, 0, len(p.hist))
	for k := range p.hist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w := make([]histWire, len(keys))
	for i, k := range keys {
		w[i] = histWire{Key: k, Obs: p.hist[k]}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("tsa: encoding state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState replaces the predictor's history with one captured by
// CaptureState.
func (p *Predictor) RestoreState(blob []byte) error {
	var w []histWire
	if len(blob) > 0 {
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&w); err != nil {
			return fmt.Errorf("tsa: decoding state: %w", err)
		}
	}
	hist := make(map[int][]float64, len(w))
	for _, h := range w {
		hist[h.Key] = h.Obs
	}
	p.hist = hist
	return nil
}
