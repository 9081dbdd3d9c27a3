package tsa

import (
	"bytes"
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.5); err == nil {
		t.Error("zero days should error")
	}
	if _, err := New(3, 0); err == nil {
		t.Error("zero decay should error")
	}
	if _, err := New(3, 1.5); err == nil {
		t.Error("decay > 1 should error")
	}
	if _, err := New(3, 1); err != nil {
		t.Error("decay = 1 should be allowed")
	}
}

func TestPredictUnseenIsZero(t *testing.T) {
	p, err := New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(5, 30); got != 0 {
		t.Errorf("unseen key predicts %v", got)
	}
	p.Observe(5, 6, 2)
	if got := p.Predict(5, 6); got != 0 {
		t.Errorf("no prior days yet, predict = %v, want 0", got)
	}
	if got := p.Predict(5, -1); got != 0 {
		t.Errorf("negative hour predicts %v", got)
	}
}

func TestPredictSameHourAverage(t *testing.T) {
	p, err := New(3, 1.0) // uniform weights
	if err != nil {
		t.Fatal(err)
	}
	// Demand at 08:00 on days 0, 1, 2: 4, 2, 6.
	p.Observe(1, 8, 4)
	p.Observe(1, 8+24, 2)
	p.Observe(1, 8+48, 6)
	// Predicting day 3 at 08:00: mean of 6, 2, 4 = 4.
	if got := p.Predict(1, 8+72); math.Abs(got-4) > 1e-12 {
		t.Errorf("Predict = %v, want 4", got)
	}
	// Another hour of day has no history: 0.
	if got := p.Predict(1, 10+72); got != 0 {
		t.Errorf("different hour predicts %v", got)
	}
}

func TestPredictRecencyWeighting(t *testing.T) {
	p, err := New(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Yesterday 10, two days ago 0, at hour 9.
	p.Observe(2, 9, 0)
	p.Observe(2, 9+24, 10)
	// Prediction for day 2, hour 9: (1*10 + 0.5*0) / 1.5 = 6.667.
	got := p.Predict(2, 9+48)
	if math.Abs(got-10.0/1.5) > 1e-9 {
		t.Errorf("Predict = %v, want %v", got, 10.0/1.5)
	}
}

func TestPredictWindowLimited(t *testing.T) {
	p, err := New(1, 1.0) // only yesterday counts
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(3, 5, 100)  // day 0
	p.Observe(3, 5+24, 2) // day 1
	if got := p.Predict(3, 5+48); got != 2 {
		t.Errorf("only yesterday should count: %v", got)
	}
}

func TestObserveAccumulates(t *testing.T) {
	p, err := New(2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(4, 7, 1)
	p.Observe(4, 7, 2)
	if got := p.Predict(4, 7+24); got != 3 {
		t.Errorf("accumulated prediction = %v, want 3", got)
	}
	p.Observe(4, -5, 9) // ignored
	if got := p.Predict(4, 7+24); got != 3 {
		t.Errorf("negative-hour observation changed prediction to %v", got)
	}
	if p.Keys() != 1 {
		t.Errorf("Keys = %d", p.Keys())
	}
}

// TestCaptureStateBytesDeterministic: one history always encodes to the
// same bytes (gob would write a map in random order), and the bytes
// restore to the same forecasts.
func TestCaptureStateBytesDeterministic(t *testing.T) {
	p, err := New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for key := 0; key < 12; key++ {
		p.Observe(key*5, key%4+24, float64(key+1))
	}
	first, err := p.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := p.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("capture %d encoded different bytes", i)
		}
	}
	q, err := New(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.RestoreState(first); err != nil {
		t.Fatal(err)
	}
	if q.Keys() != p.Keys() {
		t.Fatalf("restored %d keys, want %d", q.Keys(), p.Keys())
	}
	for key := 0; key < 12; key++ {
		if got, want := q.Predict(key*5, key%4+48), p.Predict(key*5, key%4+48); got != want || want == 0 {
			t.Errorf("key %d: restored predicts %v, want %v (non-zero)", key*5, got, want)
		}
	}
}
