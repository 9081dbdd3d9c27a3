// Package ilp implements the integer-programming substrate the paper's
// comparison methods rely on: min-cost assignment (the core of both
// Schedule [5] and Rescue [8] dispatch formulations), solved by the
// Hungarian algorithm. A latency model reproduces the paper's
// observation that IP-based dispatching takes on the order of minutes
// (~300 s), which is what destroys the baselines' rescue timeliness
// (Figure 13).
package ilp

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Infeasible marks a forbidden assignment cost.
var Infeasible = math.Inf(1)

// ErrInfeasible is returned when no feasible solution exists.
var ErrInfeasible = errors.New("ilp: infeasible")

// Hungarian solves the rectangular min-cost assignment problem: cost[i][j]
// is the cost of assigning row i (e.g. a rescue team) to column j (e.g. a
// request). It returns assign with assign[i] = column of row i or -1 when
// the row is left unassigned (more rows than columns), plus the total
// cost. Entries equal to Infeasible are never assigned; if a perfect
// matching of the smaller side is impossible, ErrInfeasible is returned.
func Hungarian(cost [][]float64) (assign []int, total float64, err error) {
	n := len(cost)
	if n == 0 {
		return nil, 0, nil
	}
	m := len(cost[0])
	for i := range cost {
		if len(cost[i]) != m {
			return nil, 0, fmt.Errorf("ilp: ragged cost matrix at row %d", i)
		}
	}
	if m == 0 {
		assign = make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		return assign, 0, fmt.Errorf("ilp: empty columns")
	}
	// Pad to a square matrix with a large-but-finite cost so the classic
	// O(n^3) algorithm applies; padded cells mean "unassigned".
	size := n
	if m > size {
		size = m
	}
	solveStart := time.Now()
	defer func() { observeHungarian(solveStart, size) }()
	// big must dominate any feasible total without overflowing.
	big := 1.0
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if !math.IsInf(cost[i][j], 1) && math.Abs(cost[i][j]) > big {
				big = math.Abs(cost[i][j])
			}
		}
	}
	big = big*float64(size+1) + 1
	a := make([][]float64, size)
	for i := range a {
		a[i] = make([]float64, size)
		for j := range a[i] {
			switch {
			case i < n && j < m && !math.IsInf(cost[i][j], 1):
				a[i][j] = cost[i][j]
			default:
				a[i][j] = big
			}
		}
	}

	// Jonker-Volgenant-style shortest augmenting path Hungarian
	// (1-indexed potentials formulation).
	const inf = math.MaxFloat64
	u := make([]float64, size+1)
	v := make([]float64, size+1)
	p := make([]int, size+1) // p[j] = row matched to column j
	way := make([]int, size+1)
	minv := make([]float64, size+1)
	used := make([]bool, size+1)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := a[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	assign = make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	total = 0
	for j := 1; j <= size; j++ {
		i := p[j] - 1
		if i < 0 || i >= n || j-1 >= m {
			continue
		}
		if math.IsInf(cost[i][j-1], 1) {
			// The algorithm matched through a padded/infeasible cell:
			// treat as unassigned.
			continue
		}
		assign[i] = j - 1
		total += cost[i][j-1]
	}
	// Feasibility: every column (if m <= n) or every row (if n <= m)
	// should be matched through a feasible cell, unless the instance
	// genuinely forbids it.
	matched := 0
	for _, j := range assign {
		if j >= 0 {
			matched++
		}
	}
	need := n
	if m < n {
		need = m
	}
	if matched < need {
		return assign, total, fmt.Errorf("%w: only %d of %d assignable", ErrInfeasible, matched, need)
	}
	return assign, total, nil
}

// LatencyModel estimates how long an IP-based dispatcher computes before
// its decisions take effect — the paper reports ~300 s per solve, growing
// with the number of requests. The model is Base + PerVariable*n, capped
// by Max.
type LatencyModel struct {
	Base        time.Duration
	PerVariable time.Duration
	Max         time.Duration
}

// PaperLatency returns the latency model matching Section V-C3: around
// 300 s per solve, varying with demand.
func PaperLatency() LatencyModel {
	return LatencyModel{
		Base:        240 * time.Second,
		PerVariable: 500 * time.Millisecond,
		Max:         600 * time.Second,
	}
}

// Latency returns the modeled solve time for an instance with n decision
// variables.
func (lm LatencyModel) Latency(n int) time.Duration {
	d := lm.Base + time.Duration(n)*lm.PerVariable
	if lm.Max > 0 && d > lm.Max {
		d = lm.Max
	}
	if d < 0 {
		d = 0
	}
	return d
}
