package sim

import (
	"math"
	"testing"
	"time"
)

var resultStart = time.Date(2018, 9, 16, 0, 0, 0, 0, time.UTC)

// makeResult builds a synthetic 3-hour Result for the accounting tests.
func makeResult(outcomes []RequestOutcome, rounds []RoundStat) *Result {
	return &Result{
		Method: "test",
		Config: Config{
			Start:           resultStart,
			Duration:        3 * time.Hour,
			TimelyThreshold: 30 * time.Minute,
		},
		Requests: outcomes,
		Rounds:   rounds,
	}
}

// served builds a served outcome appearing at app and picked up at pick
// with the given driving delay.
func served(app, pick time.Duration, driving time.Duration) RequestOutcome {
	return RequestOutcome{
		Request:      Request{AppearAt: resultStart.Add(app)},
		PickedUpAt:   resultStart.Add(pick),
		ServedBy:     0,
		DrivingDelay: driving,
	}
}

func unserved(app time.Duration) RequestOutcome {
	return RequestOutcome{Request: Request{AppearAt: resultStart.Add(app)}, ServedBy: -1}
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestRewardPerHourAccounting is the episode-accounting table (ISSUE
// satellite 4): Equation 5's hourly reward r = α·N^q − β·T^d − γ·N^m
// under the edge cases that have historically produced silent accounting
// bugs — empty windows, stale (untimely) requests, and fleets parked at
// the depot.
func TestRewardPerHourAccounting(t *testing.T) {
	const alpha, beta, gamma = 50.0, 0.3, 0.01
	cases := []struct {
		name     string
		outcomes []RequestOutcome
		rounds   []RoundStat
		want     []float64
	}{
		{
			// Zero requests, no rounds: the reward series still spans the
			// run and is identically zero.
			name: "zero requests",
			want: []float64{0, 0, 0},
		},
		{
			// All teams at the depot: rounds report zero serving teams,
			// so even the γ penalty vanishes.
			name: "all teams at depot",
			rounds: []RoundStat{
				{Time: resultStart.Add(10 * time.Minute), Serving: 0},
				{Time: resultStart.Add(70 * time.Minute), Serving: 0},
			},
			want: []float64{0, 0, 0},
		},
		{
			// A window holding only stale requests: served an hour after
			// appearing, far past the 30-minute threshold. No α credit,
			// but the β driving-delay penalty still counts — slow service
			// is worse than useless, and the reward says so.
			name: "stale requests only",
			outcomes: []RequestOutcome{
				served(5*time.Minute, 65*time.Minute, 12*time.Minute),
				served(10*time.Minute, 80*time.Minute, 6*time.Minute),
			},
			want: []float64{0, -beta * (18.0 / 60.0), 0},
		},
		{
			// Timely pickups earn α in the hour of the pickup (not of the
			// appearance), minus β on driving delay.
			name: "timely pickups bucketed by pickup hour",
			outcomes: []RequestOutcome{
				served(55*time.Minute, 70*time.Minute, 30*time.Minute), // timely, hour 1
				served(10*time.Minute, 20*time.Minute, 0),              // timely, hour 0
			},
			want: []float64{alpha, alpha - beta*0.5, 0},
		},
		{
			// Unserved requests contribute nothing anywhere.
			name:     "unserved requests ignored",
			outcomes: []RequestOutcome{unserved(5 * time.Minute), unserved(100 * time.Minute)},
			want:     []float64{0, 0, 0},
		},
		{
			// γ charges the mean serving-team count over each hour's
			// rounds: hour 0 averages (4+2)/2 = 3 teams.
			name: "serving teams penalized per hour",
			rounds: []RoundStat{
				{Time: resultStart.Add(10 * time.Minute), Serving: 4},
				{Time: resultStart.Add(50 * time.Minute), Serving: 2},
				{Time: resultStart.Add(130 * time.Minute), Serving: 5},
			},
			want: []float64{-gamma * 3, 0, -gamma * 5},
		},
		{
			// Pickup outside the run window (e.g. a request served after
			// the configured duration by a still-driving team) is dropped
			// rather than crashing or smearing into the last bucket.
			name: "pickup beyond horizon dropped",
			outcomes: []RequestOutcome{
				served(170*time.Minute, 190*time.Minute, 0),
			},
			want: []float64{0, 0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := makeResult(tc.outcomes, tc.rounds)
			got := res.RewardPerHour(alpha, beta, gamma)
			if len(got) != len(tc.want) {
				t.Fatalf("len = %d, want %d", len(got), len(tc.want))
			}
			for h := range got {
				if !almostEqual(got[h], tc.want[h]) {
					t.Errorf("hour %d: reward = %v, want %v", h, got[h], tc.want[h])
				}
			}
		})
	}
}

func TestTimelyServedAccounting(t *testing.T) {
	res := makeResult([]RequestOutcome{
		served(5*time.Minute, 20*time.Minute, 0),    // timely, hour 0
		served(5*time.Minute, 100*time.Minute, 0),   // stale
		served(100*time.Minute, 110*time.Minute, 0), // timely, hour 1
		unserved(10 * time.Minute),
	}, nil)
	perHour := res.TimelyServedPerHour()
	if len(perHour) != 3 || perHour[0] != 1 || perHour[1] != 1 || perHour[2] != 0 {
		t.Errorf("TimelyServedPerHour = %v, want [1 1 0]", perHour)
	}
	if res.TotalTimelyServed() != 2 {
		t.Errorf("TotalTimelyServed = %d, want 2", res.TotalTimelyServed())
	}
	if res.TotalServed() != 3 {
		t.Errorf("TotalServed = %d, want 3", res.TotalServed())
	}
}

func TestResultHoursRoundsUp(t *testing.T) {
	res := makeResult(nil, nil)
	res.Config.Duration = 90 * time.Minute
	if got := len(res.RewardPerHour(1, 1, 1)); got != 2 {
		t.Errorf("90-minute run has %d hour buckets, want 2", got)
	}
	res.Config.Duration = 0
	if got := len(res.RewardPerHour(1, 1, 1)); got != 1 {
		t.Errorf("zero-duration run has %d hour buckets, want 1", got)
	}
}
