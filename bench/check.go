package main

import (
	"fmt"

	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/sim"
)

// checkRun checks a finished run against the simulation's own rules:
// requests are conserved, a request is picked up only after it appears
// and only by a real team, and a benign run rejects no order.
func checkRun(j *job, res *sim.Result, windows int) error {
	if res == nil {
		return fmt.Errorf("run did not finish after %d windows", windows)
	}
	if len(res.Requests) != j.n {
		return fmt.Errorf("%d requests in, %d outcomes out", j.n, len(res.Requests))
	}
	if n := res.Resilience.TotalRejected(); n != 0 {
		return fmt.Errorf("%d orders rejected on a benign run", n)
	}
	prog := j.sim.Progress()
	served, unserved := 0, 0
	for i, o := range res.Requests {
		switch {
		case !o.Served():
			if o.ServedBy != -1 || !o.DeliveredAt.IsZero() {
				return fmt.Errorf("request %d unserved but assigned to team %d", o.ID, o.ServedBy)
			}
			if i < prog.Appeared {
				unserved++
			}
		case i >= prog.Appeared:
			return fmt.Errorf("request %d served but never appeared", o.ID)
		case o.PickedUpAt.Before(o.AppearAt):
			return fmt.Errorf("request %d picked up at %v, before it appeared at %v", o.ID, o.PickedUpAt, o.AppearAt)
		case o.ServedBy < 0 || int(o.ServedBy) >= j.teams:
			return fmt.Errorf("request %d served by team %d of %d", o.ID, o.ServedBy, j.teams)
		case !o.DeliveredAt.IsZero() && o.DeliveredAt.Before(o.PickedUpAt):
			return fmt.Errorf("request %d delivered before its pickup", o.ID)
		default:
			served++
		}
	}
	if served+unserved != prog.Appeared || served != prog.Served {
		return fmt.Errorf("requests not conserved: %d served + %d unserved, simulator counted %d appeared and %d served",
			served, unserved, prog.Appeared, prog.Served)
	}
	if t := res.TotalTimelyServed(); t > served {
		return fmt.Errorf("%d timely of %d served", t, served)
	}
	return nil
}

// checkLog replays a run's flight-recorder events against its outcome:
// one decide event per window, each request picked up at most once and
// never before it appears, every pickup in the outcome, and no team
// carrying more than its capacity.
func checkLog(path string, res *sim.Result, windows int) error {
	rl, err := eventlog.ReadFile(path)
	if err != nil {
		return err
	}
	appear := make(map[int]sim.RequestOutcome, len(res.Requests))
	for _, o := range res.Requests {
		appear[int(o.ID)] = o
	}
	picked := make(map[int]bool)
	onboard := make(map[int]int)
	decides := 0
	for _, ev := range rl.Events {
		switch ev.Type {
		case eventlog.TypeDecide:
			decides++
		case eventlog.TypePickup:
			o, ok := appear[ev.Request]
			switch {
			case !ok:
				return fmt.Errorf("line %d: pickup of unknown request %d", ev.Line, ev.Request)
			case picked[ev.Request]:
				return fmt.Errorf("line %d: request %d picked up twice", ev.Line, ev.Request)
			case ev.T.Before(o.AppearAt):
				return fmt.Errorf("line %d: request %d picked up before it appeared", ev.Line, ev.Request)
			case !ev.T.Equal(o.PickedUpAt):
				return fmt.Errorf("line %d: request %d picked up at %v, outcome says %v", ev.Line, ev.Request, ev.T, o.PickedUpAt)
			}
			picked[ev.Request] = true
			onboard[ev.Vehicle]++
			if onboard[ev.Vehicle] > res.Config.Capacity {
				return fmt.Errorf("line %d: team %d carries %d, capacity %d", ev.Line, ev.Vehicle, onboard[ev.Vehicle], res.Config.Capacity)
			}
		case eventlog.TypeDropoff:
			if onboard[ev.Vehicle] < ev.N {
				return fmt.Errorf("line %d: team %d drops %d, carries %d", ev.Line, ev.Vehicle, ev.N, onboard[ev.Vehicle])
			}
			onboard[ev.Vehicle] -= ev.N
		}
	}
	if decides != windows {
		return fmt.Errorf("%d decide events for %d windows", decides, windows)
	}
	if served := res.TotalServed(); len(picked) != served {
		return fmt.Errorf("%d pickup events, %d requests served", len(picked), served)
	}
	return nil
}

// diffOutcomes describes the first difference between two passes'
// outcomes, or returns "" when they are identical.
func diffOutcomes(a, b passOutcome) string {
	if len(a.rewards) != len(b.rewards) {
		return fmt.Sprintf("%d vs %d training rewards", len(a.rewards), len(b.rewards))
	}
	for i := range a.rewards {
		if a.rewards[i] != b.rewards[i] {
			return fmt.Sprintf("episode %d reward %v vs %v", i, a.rewards[i], b.rewards[i])
		}
	}
	if len(a.results) != len(b.results) {
		return fmt.Sprintf("%d vs %d runs", len(a.results), len(b.results))
	}
	for r := range a.results {
		ra, rb := a.results[r].Requests, b.results[r].Requests
		if len(ra) != len(rb) {
			return fmt.Sprintf("run %d: %d vs %d requests", r, len(ra), len(rb))
		}
		for i := range ra {
			x, y := ra[i], rb[i]
			if x.ID != y.ID || x.ServedBy != y.ServedBy || !x.PickedUpAt.Equal(y.PickedUpAt) ||
				!x.DeliveredAt.Equal(y.DeliveredAt) || x.DrivingDelay != y.DrivingDelay {
				return fmt.Sprintf("run %d request %d: %+v vs %+v", r, x.ID, x, y)
			}
		}
	}
	return ""
}
