package ilp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mobirescue/internal/obs"
)

func TestHungarianKnownCases(t *testing.T) {
	tests := []struct {
		name      string
		cost      [][]float64
		wantTotal float64
	}{
		{
			name:      "identity optimal",
			cost:      [][]float64{{1, 10}, {10, 1}},
			wantTotal: 2,
		},
		{
			name:      "crossed optimal",
			cost:      [][]float64{{10, 1}, {1, 10}},
			wantTotal: 2,
		},
		{
			name: "classic 3x3",
			cost: [][]float64{
				{4, 1, 3},
				{2, 0, 5},
				{3, 2, 2},
			},
			wantTotal: 5, // 1 + 2 + 2
		},
		{
			name:      "single cell",
			cost:      [][]float64{{7}},
			wantTotal: 7,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			assign, total, err := Hungarian(tt.cost)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(total-tt.wantTotal) > 1e-9 {
				t.Errorf("total = %v, want %v (assign %v)", total, tt.wantTotal, assign)
			}
			// Assignment must be a matching.
			seen := map[int]bool{}
			for _, j := range assign {
				if j < 0 {
					continue
				}
				if seen[j] {
					t.Error("column assigned twice")
				}
				seen[j] = true
			}
		})
	}
}

func TestHungarianRectangular(t *testing.T) {
	// More rows than columns: one row stays unassigned.
	cost := [][]float64{
		{5},
		{1},
		{3},
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Errorf("total = %v, want 1", total)
	}
	if assign[1] != 0 || assign[0] != -1 || assign[2] != -1 {
		t.Errorf("assign = %v", assign)
	}
	// More columns than rows: every row assigned.
	cost2 := [][]float64{{9, 2, 7}}
	assign2, total2, err := Hungarian(cost2)
	if err != nil {
		t.Fatal(err)
	}
	if total2 != 2 || assign2[0] != 1 {
		t.Errorf("assign = %v total = %v", assign2, total2)
	}
}

func TestHungarianInfeasibleCells(t *testing.T) {
	cost := [][]float64{
		{Infeasible, 3},
		{2, Infeasible},
	}
	assign, total, err := Hungarian(cost)
	if err != nil {
		t.Fatal(err)
	}
	if assign[0] != 1 || assign[1] != 0 || total != 5 {
		t.Errorf("assign = %v, total = %v", assign, total)
	}
	// Fully infeasible row.
	bad := [][]float64{
		{Infeasible, Infeasible},
		{1, 2},
	}
	_, _, err = Hungarian(bad)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestHungarianInputValidation(t *testing.T) {
	if _, _, err := Hungarian([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged matrix should error")
	}
	if assign, total, err := Hungarian(nil); err != nil || assign != nil || total != 0 {
		t.Error("empty matrix should be a no-op")
	}
	if _, _, err := Hungarian([][]float64{{}}); err == nil {
		t.Error("zero columns should error")
	}
}

// randCost builds a random rows x cols matrix. integer draws whole
// costs from [-1000, 1000], otherwise reals from [-100, 100); infProb
// sprinkles Infeasible cells.
func randCost(rng *rand.Rand, rows, cols int, integer bool, infProb float64) [][]float64 {
	cost := make([][]float64, rows)
	for i := range cost {
		cost[i] = make([]float64, cols)
		for j := range cost[i] {
			switch {
			case rng.Float64() < infProb:
				cost[i][j] = Infeasible
			case integer:
				cost[i][j] = math.Floor(rng.Float64()*2001) - 1000
			default:
				cost[i][j] = rng.Float64()*200 - 100
			}
		}
	}
	return cost
}

// bruteAssign finds the optimal assignment by enumeration (small
// matrices): every way of matching min(rows, cols) rows to distinct
// columns through feasible cells, whichever rows are left out. ok is
// false when the smaller side cannot be fully matched.
func bruteAssign(cost [][]float64) (best float64, ok bool) {
	n, m := len(cost), len(cost[0])
	need := min(n, m)
	used := make([]bool, m)
	var walk func(i, matched int, cur float64)
	walk = func(i, matched int, cur float64) {
		if matched == need {
			if !ok || cur < best {
				best, ok = cur, true
			}
			return
		}
		if n-i < need-matched {
			return // too few rows left to complete the matching
		}
		walk(i+1, matched, cur) // row i stays unassigned
		for j := 0; j < m; j++ {
			if used[j] || math.IsInf(cost[i][j], 1) {
				continue
			}
			used[j] = true
			walk(i+1, matched+1, cur+cost[i][j])
			used[j] = false
		}
	}
	walk(0, 0, 0)
	return best, ok
}

func TestBruteAssignTall(t *testing.T) {
	// The cheaper row must be the one matched, not the first.
	if got, ok := bruteAssign([][]float64{{10}, {1}}); !ok || got != 1 {
		t.Fatalf("bruteAssign = %v, %v; want 1, true", got, ok)
	}
	if _, ok := bruteAssign([][]float64{{Infeasible, 2}, {Infeasible, 3}}); ok {
		t.Fatal("bruteAssign matched two rows through one feasible column")
	}
}

// near compares float totals summed in different orders.
func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// TestHungarianMatchesBruteForce checks Hungarian's optimum against
// enumeration on every shape up to 6x6 — tall (more free teams than
// targets, the usual baseline window), wide and square — with
// Infeasible cells at rates 0, 0.2 and 0.5 and negative integer and
// real costs. ErrInfeasible must come back exactly when no matching of
// the smaller side exists.
func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, infProb := range []float64{0, 0.2, 0.5} {
		for n := 1; n <= 6; n++ {
			for m := 1; m <= 6; m++ {
				for trial := 0; trial < 8; trial++ {
					cost := randCost(rng, n, m, trial%2 == 0, infProb)
					assign, total, err := Hungarian(cost)
					checkSolverOutput(t, cost, assign, err)
					want, ok := bruteAssign(cost)
					if !ok {
						if !errors.Is(err, ErrInfeasible) {
							t.Fatalf("%dx%d: err = %v, want ErrInfeasible (cost %v)", n, m, err, cost)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%dx%d: %v (cost %v)", n, m, err, cost)
					}
					if !near(total, want) {
						t.Fatalf("%dx%d: hungarian %v != brute %v (cost %v, assign %v)", n, m, total, want, cost, assign)
					}
					sum := 0.0
					for i, j := range assign {
						if j >= 0 {
							sum += cost[i][j]
						}
					}
					if !near(sum, total) {
						t.Fatalf("%dx%d: reported total %v, assignment sums to %v", n, m, total, sum)
					}
				}
			}
		}
	}
}

// TestHungarianEmptyColumns pins the documented -1 contract on the
// m == 0 early return: no row may come back "assigned" to column 0.
func TestHungarianEmptyColumns(t *testing.T) {
	assign, total, err := Hungarian([][]float64{{}, {}, {}})
	if err == nil || !strings.Contains(err.Error(), "empty columns") {
		t.Fatalf("err = %v, want empty-columns error", err)
	}
	if total != 0 || len(assign) != 3 {
		t.Fatalf("assign = %v total = %v", assign, total)
	}
	for i, j := range assign {
		if j != -1 {
			t.Errorf("assign[%d] = %d, want -1", i, j)
		}
	}
}

// TestHungarianScratchAllocs pins the augmenting-path scratch: minv and
// used are allocated once per solve, not once per row, so a size-N
// solve stays at about N allocations.
func TestHungarianScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 40
	cost := randCost(rng, n, n, true, 0)
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Hungarian(cost); err != nil {
			t.Fatal(err)
		}
	})
	// Row storage for the padded matrix dominates: n+1 rows plus a
	// handful of flat slices; per-row scratch would be ~3n+10.
	if limit := float64(n + 20); allocs > limit {
		t.Errorf("Hungarian allocates %v per solve, want <= %v", allocs, limit)
	}
}

// TestHungarianMetrics: with metrics enabled every solve counts once
// and records its padded matrix dimension.
func TestHungarianMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer EnableMetrics(nil)
	if _, _, err := Hungarian([][]float64{{3, 1, 4}, {2, 4, 1}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap[MetricHungarianSolves]; got != int64(1) {
		t.Errorf("%s = %v, want 1", MetricHungarianSolves, got)
	}
	size, _ := snap[MetricHungarianSize].(map[string]any)
	if size["count"] != int64(1) || size["sum"] != 3.0 {
		t.Errorf("%s = %v, want one observation of 3", MetricHungarianSize, size)
	}
}

func TestLatencyModel(t *testing.T) {
	lm := LatencyModel{Base: 10 * time.Second, PerVariable: time.Second, Max: 30 * time.Second}
	if got := lm.Latency(5); got != 15*time.Second {
		t.Errorf("Latency(5) = %v", got)
	}
	if got := lm.Latency(100); got != 30*time.Second {
		t.Errorf("capped Latency = %v", got)
	}
	paper := PaperLatency()
	if got := paper.Latency(100); got < 200*time.Second || got > 600*time.Second {
		t.Errorf("paper latency for 100 vars = %v, want minutes-scale", got)
	}
}

// BenchmarkHungarian50 times square solves at 50 (real costs) and 100
// (integer costs) rows.
func BenchmarkHungarian50(b *testing.B) {
	for _, bc := range []struct {
		n       int
		integer bool
		seed    int64
	}{{50, false, 31}, {100, true, 71}} {
		cost := randCost(rand.New(rand.NewSource(bc.seed)), bc.n, bc.n, bc.integer, 0)
		b.Run(fmt.Sprintf("%dx%d", bc.n, bc.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Hungarian(cost); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
