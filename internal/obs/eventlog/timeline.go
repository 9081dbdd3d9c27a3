package eventlog

import (
	"fmt"
	"io"
)

// Timeline reconstruction: collapse an event stream back into
// per-window curves — the trajectory view the paper's figures and Wang
// & Taylor's perturbation/recovery resilience framing both need.

// WindowStat aggregates one (run, window) cell of the timeline.
type WindowStat struct {
	W       int
	Active  int // active requests when the window opened
	Orders  int // orders kept this window
	Serving int // teams serving at window close
	Served  int // cumulative requests served at window close
	Pickups int
	Drops   int     // dropoff events (deliveries)
	Faults  int     // chaos faults landing in this window
	Reward  float64 // windowed reward in Eq. 5's shape: rewardAlpha·served_Δ − rewardGamma·active
}

// Reward weights of the timeline's windowed reward. They only shape
// that curve: they are not MobiRescue's Eq. 5 defaults (50, 0.3 and
// 0.01 in dispatch.DefaultMRConfig), and the curve is not
// comparable with RewardPerHour.
const (
	rewardAlpha = 1.0
	rewardGamma = 0.05
)

// RunTimeline is the per-window trajectory for one logical run.
type RunTimeline struct {
	Run     string
	Method  string
	Windows []WindowStat
	Served  int // final
	Timely  int
	Unserv  int
}

// Resilience summarizes a perturbation-and-recovery curve per run:
// baseline serving level, deepest dip after the first fault, and the
// window at which the serving level recovered to baseline.
type Resilience struct {
	Run           string
	FirstFaultW   int     // 0 = no faults recorded
	Baseline      float64 // mean serving teams before first fault
	Dip           float64 // minimum serving teams at/after first fault
	DipW          int
	RecoveredW    int // first window ≥ DipW back at ≥ baseline (0 = never)
	FaultCount    int
	FallbackCount int
}

// BuildTimelines groups the log's events into per-run trajectories,
// in first-appearance order (which is logical order by construction).
func BuildTimelines(rl *RunLog) []*RunTimeline {
	byRun := map[string]*RunTimeline{}
	var order []string
	get := func(run string) *RunTimeline {
		t := byRun[run]
		if t == nil {
			t = &RunTimeline{Run: run}
			byRun[run] = t
			order = append(order, run)
		}
		return t
	}
	// Window stats keyed per run; windows are 1-based.
	cell := func(t *RunTimeline, w int) *WindowStat {
		if w <= 0 {
			w = 1
		}
		for len(t.Windows) < w {
			t.Windows = append(t.Windows, WindowStat{W: len(t.Windows) + 1})
		}
		return &t.Windows[w-1]
	}

	cur := "" // current run label: events between run_start markers belong to it
	for i := range rl.Events {
		e := &rl.Events[i]
		if e.Run != "" {
			cur = e.Run
		}
		t := get(cur)
		switch e.Type {
		case TypeRunStart:
			if e.Method != "" {
				t.Method = e.Method
			}
		case TypeRunEnd:
			t.Served, t.Timely, t.Unserv = e.Served, e.Timely, e.Unserved
		case TypeWindowOpen:
			cell(t, e.W).Active = e.Active
		case TypeWindowClose:
			c := cell(t, e.W)
			c.Orders, c.Serving, c.Served = e.Orders, e.Serving, e.Served
		case TypePickup:
			cell(t, e.W).Pickups++
		case TypeDropoff:
			cell(t, e.W).Drops++
		case TypeFault:
			cell(t, e.W).Faults++
		}
	}

	out := make([]*RunTimeline, 0, len(order))
	for _, run := range order {
		t := byRun[run]
		if len(t.Windows) == 0 {
			continue
		}
		prevServed := 0
		for i := range t.Windows {
			c := &t.Windows[i]
			c.Reward = rewardAlpha*float64(c.Served-prevServed) - rewardGamma*float64(c.Active)
			prevServed = c.Served
		}
		out = append(out, t)
	}
	return out
}

// BuildResilience derives the perturbation-and-recovery summary for
// each timeline.
func BuildResilience(rl *RunLog, tls []*RunTimeline) []Resilience {
	fallbacks := map[string]int{}
	cur := ""
	for i := range rl.Events {
		e := &rl.Events[i]
		if e.Run != "" {
			cur = e.Run
		}
		if e.Type == TypeFallback {
			fallbacks[cur]++
		}
	}
	var out []Resilience
	for _, t := range tls {
		r := Resilience{Run: t.Run, FallbackCount: fallbacks[t.Run]}
		for _, c := range t.Windows {
			r.FaultCount += c.Faults
			if r.FirstFaultW == 0 && c.Faults > 0 {
				r.FirstFaultW = c.W
			}
		}
		if r.FirstFaultW == 0 {
			out = append(out, r)
			continue
		}
		n, sum := 0, 0.0
		for _, c := range t.Windows[:r.FirstFaultW-1] {
			sum += float64(c.Serving)
			n++
		}
		if n > 0 {
			r.Baseline = sum / float64(n)
		}
		r.Dip = -1
		for _, c := range t.Windows[r.FirstFaultW-1:] {
			if r.Dip < 0 || float64(c.Serving) < r.Dip {
				r.Dip, r.DipW = float64(c.Serving), c.W
			}
		}
		for _, c := range t.Windows[r.DipW-1:] {
			if float64(c.Serving) >= r.Baseline {
				r.RecoveredW = c.W
				break
			}
		}
		out = append(out, r)
	}
	return out
}

// WriteTimeline renders the timelines (and resilience curves when the
// log recorded faults) as aligned text tables.
func WriteTimeline(w io.Writer, rl *RunLog, tls []*RunTimeline) {
	m := rl.Manifest
	fmt.Fprintf(w, "manifest: scale=%s seed=%d config=%s chaos=%s timing=%v\n",
		orDash(m.Scale), m.Seed, orDash(m.ConfigHash), orDash(m.Chaos), m.Timing)
	if rl.Truncated {
		fmt.Fprintf(w, "note: the log ends in a torn record (the run was cut mid-write); it is left out\n")
	}
	for _, t := range tls {
		fmt.Fprintf(w, "\nrun %s", t.Run)
		if t.Method != "" {
			fmt.Fprintf(w, " (%s)", t.Method)
		}
		fmt.Fprintf(w, ": %d windows, served=%d timely=%d unserved=%d\n",
			len(t.Windows), t.Served, t.Timely, t.Unserv)
		fmt.Fprintf(w, "%6s %7s %7s %8s %7s %8s %6s %7s %8s\n",
			"window", "active", "orders", "serving", "served", "pickups", "drops", "faults", "reward")
		for _, c := range t.Windows {
			fmt.Fprintf(w, "%6d %7d %7d %8d %7d %8d %6d %7d %8.2f\n",
				c.W, c.Active, c.Orders, c.Serving, c.Served, c.Pickups, c.Drops, c.Faults, c.Reward)
		}
	}
	res := BuildResilience(rl, tls)
	any := false
	for _, r := range res {
		if r.FaultCount > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	fmt.Fprintf(w, "\nresilience (perturbation & recovery):\n")
	fmt.Fprintf(w, "%-14s %7s %9s %8s %6s %10s %7s %9s\n",
		"run", "faults", "fallbacks", "baseline", "dip", "dip_window", "recov_w", "recovered")
	for _, r := range res {
		if r.FaultCount == 0 {
			continue
		}
		rec := "no"
		if r.RecoveredW > 0 {
			rec = "yes"
		}
		fmt.Fprintf(w, "%-14s %7d %9d %8.2f %6.0f %10d %7d %9s\n",
			r.Run, r.FaultCount, r.FallbackCount, r.Baseline, r.Dip, r.DipW, r.RecoveredW, rec)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
