// Package mobility generates and analyzes city-scale human mobility
// traces. It substitutes for the paper's proprietary X-Mode GPS dataset
// (8,590 people in Charlotte around Hurricane Florence): a synthetic
// population with home/work anchors follows an activity model whose
// behavior shifts across the before/during/after disaster phases, people
// caught in flooding zones become trapped and are delivered to hospitals,
// and each person's position is sampled into noisy GPS points at the
// paper's 0.5–2 h cadence. The samples go straight into a pop.Store,
// person by person: the one copy of the traces that both hospital-stay
// detection and the prediction stage read.
//
// The package also implements the paper's derivation pipeline over such
// traces: vehicle flow rates (Definition 2), and data cleaning folded
// into the hospital-stay detection used to label rescued people
// (Section III-B2).
package mobility

import (
	"fmt"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
)

// Phase identifies where an instant falls relative to the disaster.
type Phase int

// Disaster phases.
const (
	PhaseBefore Phase = iota + 1
	PhaseDuring
	PhaseAfter
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseBefore:
		return "before"
	case PhaseDuring:
		return "during"
	case PhaseAfter:
		return "after"
	default:
		return "unknown"
	}
}

// Person is one member of the synthetic population.
type Person struct {
	ID         int
	Home       geo.Point
	HomeLM     roadnet.LandmarkID
	HomeSeg    roadnet.SegmentID
	Work       geo.Point
	WorkLM     roadnet.LandmarkID
	HomeRegion int
}

// Trip is one vehicle journey with its routed segment sequence.
type Trip struct {
	PersonID int
	Depart   time.Time
	FromLM   roadnet.LandmarkID
	ToLM     roadnet.LandmarkID
	Segs     []roadnet.SegmentID
}

// RescueEvent is ground truth for one trapped person: when and on which
// road segment the rescue request appeared. The historical rescue then
// delivers them to the hospital nearest their home.
type RescueEvent struct {
	PersonID    int
	RequestTime time.Time
	Seg         roadnet.SegmentID // road segment the request appears on
}

// Dataset bundles everything the generator produces.
type Dataset struct {
	People []Person
	// Traces holds the raw, uncleaned GPS samples (timestamp and
	// position, Section III-A), each person's time-ordered, people in ID
	// order.
	Traces  *pop.Store
	Trips   []Trip
	Rescues []RescueEvent
	Config  Config
}

// Config controls trace generation. All probability fields are in [0,1].
type Config struct {
	Seed      int64
	NumPeople int

	// Start is the beginning of the observation window (midnight).
	Start time.Time
	// Days is the window length.
	Days int
	// DisasterStart and DisasterEnd bound the "during" phase.
	DisasterStart, DisasterEnd time.Time

	// SampleMin and SampleMax bound the GPS sampling interval (the paper
	// reports 0.5–2 h).
	SampleMin, SampleMax time.Duration
	// GPSNoise is the positional noise standard deviation in meters.
	GPSNoise float64

	// LeisureTripProb is the chance of an extra non-commute trip on a
	// normal day.
	LeisureTripProb float64
	// DuringTripProb is the chance that a person whose street is still
	// dry makes a local essential round trip on a disaster day. People
	// with flooded streets make no trips at all, so regional flow during
	// the disaster collapses exactly where the water is (Figure 5) while
	// high ground keeps moving (the paper's R1).
	DuringTripProb float64
	// AfterTripBase and AfterTripRecovery control post-disaster recovery:
	// the trip rate is AfterTripBase + AfterTripRecovery*daysSinceEnd,
	// capped at 1.
	AfterTripBase, AfterTripRecovery float64

	// TrapHazardPerHour is the hourly probability that a person whose
	// position is inside a flooding zone becomes trapped and issues a
	// rescue request.
	TrapHazardPerHour float64
	// DeliverDelayMin/Max bound the historical rescue delay between the
	// request and hospital delivery.
	DeliverDelayMin, DeliverDelayMax time.Duration
	// HospitalStay is how long a rescued person remains at the hospital
	// (the paper detects deliveries via stays longer than 2 h).
	HospitalStay time.Duration

	// DowntownWorkShare is the fraction of people commuting downtown.
	DowntownWorkShare float64
}

// DefaultConfig returns a configuration mirroring the paper's dataset:
// 8,590 people over 10 days with the disaster on days 2–5.
func DefaultConfig() Config {
	start := time.Date(2018, 9, 10, 0, 0, 0, 0, time.UTC)
	return Config{
		Seed:              1,
		NumPeople:         8590,
		Start:             start,
		Days:              10,
		DisasterStart:     start.Add(2 * 24 * time.Hour), // Sep 12
		DisasterEnd:       start.Add(5 * 24 * time.Hour), // Sep 15
		SampleMin:         30 * time.Minute,
		SampleMax:         2 * time.Hour,
		GPSNoise:          15,
		LeisureTripProb:   0.40,
		DuringTripProb:    0.80,
		AfterTripBase:     0.35,
		AfterTripRecovery: 0.08,
		TrapHazardPerHour: 0.03,
		DeliverDelayMin:   time.Hour,
		DeliverDelayMax:   6 * time.Hour,
		HospitalStay:      12 * time.Hour,
		DowntownWorkShare: 0.20,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumPeople <= 0 {
		return fmt.Errorf("mobility: NumPeople must be positive")
	}
	if c.Days <= 0 {
		return fmt.Errorf("mobility: Days must be positive")
	}
	if c.Start.IsZero() {
		return fmt.Errorf("mobility: Start must be set")
	}
	if !c.DisasterEnd.After(c.DisasterStart) {
		return fmt.Errorf("mobility: disaster window is empty")
	}
	if c.SampleMin <= 0 || c.SampleMax < c.SampleMin {
		return fmt.Errorf("mobility: invalid sampling interval [%v, %v]", c.SampleMin, c.SampleMax)
	}
	if c.GPSNoise < 0 {
		return fmt.Errorf("mobility: GPSNoise must be non-negative")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LeisureTripProb", c.LeisureTripProb},
		{"DuringTripProb", c.DuringTripProb},
		{"AfterTripBase", c.AfterTripBase},
		{"TrapHazardPerHour", c.TrapHazardPerHour},
		{"DowntownWorkShare", c.DowntownWorkShare},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("mobility: %s = %v out of [0,1]", p.name, p.v)
		}
	}
	if c.DeliverDelayMin <= 0 || c.DeliverDelayMax < c.DeliverDelayMin {
		return fmt.Errorf("mobility: invalid delivery delay bounds")
	}
	if c.HospitalStay <= 0 {
		return fmt.Errorf("mobility: HospitalStay must be positive")
	}
	return nil
}

// End returns the end of the observation window.
func (c Config) End() time.Time { return c.Start.Add(time.Duration(c.Days) * 24 * time.Hour) }

// PhaseOf classifies t against the disaster window.
func (c Config) PhaseOf(t time.Time) Phase {
	switch {
	case t.Before(c.DisasterStart):
		return PhaseBefore
	case t.Before(c.DisasterEnd):
		return PhaseDuring
	default:
		return PhaseAfter
	}
}

// DayIndex returns the 0-based day of t within the window, clamped.
func (c Config) DayIndex(t time.Time) int {
	d := int(t.Sub(c.Start) / (24 * time.Hour))
	if d < 0 {
		return 0
	}
	if d >= c.Days {
		return c.Days - 1
	}
	return d
}
