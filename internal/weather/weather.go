// Package weather simulates the disaster-related factor fields MobiRescue
// consumes: precipitation and wind speed over space and time during a
// hurricane, plus helpers for the per-person factor vectors
// h = (precipitation, wind speed, altitude) of Section IV-B.
//
// The paper obtains these fields from the National Weather Service; this
// package substitutes a parametric hurricane model (moving storm center,
// spatial decay, temporal envelope) that reproduces the qualitative
// structure the paper measures: different regions experience markedly
// different severities, and severity anti-correlates with altitude
// because the storm track passes over the low-lying districts.
package weather

import (
	"fmt"
	"math"
	"time"

	"mobirescue/internal/geo"
)

// Field exposes the two meteorological disaster-related factors at any
// place and time.
type Field interface {
	// PrecipAt returns the precipitation rate in mm/h at p and t.
	PrecipAt(p geo.Point, t time.Time) float64
	// WindAt returns the sustained wind speed in mph at p and t.
	WindAt(p geo.Point, t time.Time) float64
}

// Calm is a Field with no weather at all; it models pre/post-disaster
// background conditions.
type Calm struct{}

var _ Field = Calm{}

// PrecipAt implements Field.
func (Calm) PrecipAt(geo.Point, time.Time) float64 { return 0 }

// WindAt implements Field.
func (Calm) WindAt(geo.Point, time.Time) float64 { return 0 }

// Hurricane is a parametric tropical-storm model. The storm center moves
// linearly from TrackStart along TrackBearing at TrackSpeed; intensity
// follows a raised-cosine envelope between Start and End peaking at the
// midpoint; spatial decay is Gaussian with scale Radius.
type Hurricane struct {
	Name string
	// Start and End bound the impact window.
	Start, End time.Time
	// TrackStart is the storm-center position at Start.
	TrackStart geo.Point
	// TrackBearing is the direction of storm motion in degrees.
	TrackBearing float64
	// TrackSpeed is the storm translation speed in m/s.
	TrackSpeed float64
	// Radius is the spatial decay scale in meters.
	Radius float64
	// PeakPrecip is the precipitation rate in mm/h at the center at peak.
	PeakPrecip float64
	// PeakWind is the wind speed in mph at the center at peak.
	PeakWind float64
	// BaseWind is the far-field wind in mph during the impact window.
	BaseWind float64
}

var _ Field = (*Hurricane)(nil)

// Validate reports configuration errors.
func (h *Hurricane) Validate() error {
	if !h.End.After(h.Start) {
		return fmt.Errorf("weather: hurricane %q has empty impact window", h.Name)
	}
	if h.Radius <= 0 {
		return fmt.Errorf("weather: hurricane %q has non-positive radius", h.Name)
	}
	if h.PeakPrecip < 0 || h.PeakWind < 0 {
		return fmt.Errorf("weather: hurricane %q has negative intensity", h.Name)
	}
	return nil
}

// CenterAt returns the storm-center position at t (clamped to the impact
// window).
func (h *Hurricane) CenterAt(t time.Time) geo.Point {
	if t.Before(h.Start) {
		t = h.Start
	}
	if t.After(h.End) {
		t = h.End
	}
	elapsed := t.Sub(h.Start).Seconds()
	return geo.Destination(h.TrackStart, h.TrackBearing, h.TrackSpeed*elapsed)
}

// envelope returns the 0..1 temporal intensity at t: a raised cosine over
// the impact window (0 at the edges, 1 at the midpoint).
func (h *Hurricane) envelope(t time.Time) float64 {
	if t.Before(h.Start) || t.After(h.End) {
		return 0
	}
	span := h.End.Sub(h.Start).Seconds()
	frac := t.Sub(h.Start).Seconds() / span
	return 0.5 * (1 - math.Cos(2*math.Pi*frac))
}

// spatial returns the 0..1 Gaussian decay at distance d from the center.
func (h *Hurricane) spatial(d float64) float64 {
	return math.Exp(-d * d / (2 * h.Radius * h.Radius))
}

// PrecipAt implements Field.
func (h *Hurricane) PrecipAt(p geo.Point, t time.Time) float64 {
	e := h.envelope(t)
	if e == 0 {
		return 0
	}
	d := geo.FastDistance(p, h.CenterAt(t))
	return h.PeakPrecip * e * h.spatial(d)
}

// WindAt implements Field.
func (h *Hurricane) WindAt(p geo.Point, t time.Time) float64 {
	e := h.envelope(t)
	if e == 0 {
		return 0
	}
	d := geo.FastDistance(p, h.CenterAt(t))
	// Wind decays more slowly than rain: use a heavier tail.
	decay := math.Exp(-d / (2 * h.Radius))
	return e * (h.BaseWind + (h.PeakWind-h.BaseWind)*decay)
}

// Factors is the disaster-related factor vector h of Section IV-B.
type Factors struct {
	Precip   float64 // mm/h
	Wind     float64 // mph
	Altitude float64 // m
}

// Vector returns the factors as a feature slice in the canonical order
// (precipitation, wind speed, altitude) used by the SVM.
func (f Factors) Vector() []float64 { return []float64{f.Precip, f.Wind, f.Altitude} }

// FactorsAt samples the factor vector for a person at position p and time
// t, with elev supplying the altitude (e.g. the cellphone altimeter in
// the paper).
func FactorsAt(f Field, elev func(geo.Point) float64, p geo.Point, t time.Time) Factors {
	return WindowFactors(f, elev, p, t, 0)
}

// Altitude returns elev(p), or 0 for a nil elevation oracle.
func Altitude(elev func(geo.Point) float64, p geo.Point) float64 {
	if elev == nil {
		return 0
	}
	return elev(p)
}

// WindowFactors samples the factor vector using trailing-window averages
// of the meteorological fields: the precipitation and wind entries are
// the mean rate over [t-lookback, t], sampled hourly. This matches the
// paper's use of per-hour NWS averages rather than instantaneous rates —
// and matters physically: flooding (and thus rescue demand) follows
// accumulated rain, which lags the instantaneous rate. A non-positive
// lookback gives the instantaneous factors (FactorsAt).
func WindowFactors(f Field, elev func(geo.Point) float64, p geo.Point, t time.Time, lookback time.Duration) Factors {
	precip, wind := windowMeans(f, p, t, lookback)
	return Factors{Precip: precip, Wind: wind, Altitude: Altitude(elev, p)}
}

// windowMeans is the naive trailing scan behind WindowFactors: the mean
// precipitation and wind at p over [t-lookback, t], sampled hourly, or
// the instantaneous values for a non-positive lookback.
func windowMeans(f Field, p geo.Point, t time.Time, lookback time.Duration) (precip, wind float64) {
	if lookback <= 0 {
		return f.PrecipAt(p, t), f.WindAt(p, t)
	}
	n := 0
	for back := time.Duration(0); back <= lookback; back += time.Hour {
		at := t.Add(-back)
		precip += f.PrecipAt(p, at)
		wind += f.WindAt(p, at)
		n++
	}
	return precip / float64(n), wind / float64(n)
}

// FlorencePreset returns a Hurricane calibrated to the paper's Florence
// timeline: impact Sep 12–15 2018 over Charlotte, heaviest over the
// low-lying eastern districts (the generator's regions 2 and 3). start is
// the beginning of the impact window.
func FlorencePreset(start time.Time, city geo.Point) *Hurricane {
	// Track starts southeast of downtown and crosses it heading
	// northwest, so the eastern (R2) and central (R3) districts see the
	// strongest conditions.
	trackStart := geo.Destination(city, 120, 12000)
	return &Hurricane{
		Name:         "florence-like",
		Start:        start,
		End:          start.Add(72 * time.Hour),
		TrackStart:   trackStart,
		TrackBearing: 300,
		TrackSpeed:   0.09, // ~23 km over 72h: slow, soaking storm
		Radius:       18000,
		PeakPrecip:   140, // mm/h at the core at peak
		PeakWind:     75,  // mph
		BaseWind:     25,
	}
}

// MichaelPreset returns the training hurricane ("Michael", Oct 7–16 2018
// in the paper): a faster, slightly weaker storm on a different track,
// used to train the SVM and RL models before replaying Florence.
func MichaelPreset(start time.Time, city geo.Point) *Hurricane {
	trackStart := geo.Destination(city, 150, 13000)
	return &Hurricane{
		Name:         "michael-like",
		Start:        start,
		End:          start.Add(60 * time.Hour),
		TrackStart:   trackStart,
		TrackBearing: 330,
		TrackSpeed:   0.10,
		Radius:       16000,
		PeakPrecip:   150,
		PeakWind:     82,
		BaseWind:     28,
	}
}
