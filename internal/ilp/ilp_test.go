package ilp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
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

// bruteAssign finds the optimal assignment by enumeration (small n).
func bruteAssign(cost [][]float64) float64 {
	n := len(cost)
	m := len(cost[0])
	cols := make([]int, m)
	for j := range cols {
		cols[j] = j
	}
	best := math.Inf(1)
	var perm func(rows []int, used []bool, cur float64, count int)
	need := n
	if m < n {
		need = m
	}
	perm = func(rows []int, used []bool, cur float64, count int) {
		if count == need {
			if cur < best {
				best = cur
			}
			return
		}
		i := rows[count]
		for j := 0; j < m; j++ {
			if used[j] || math.IsInf(cost[i][j], 1) {
				continue
			}
			used[j] = true
			perm(rows, used, cur+cost[i][j], count+1)
			used[j] = false
		}
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	perm(rows, make([]bool, m), 0, 0)
	return best
}

func TestHungarianMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(5)
		if n > m {
			n, m = m, n // keep brute force cheap but cover both shapes via transpose below
		}
		cost := make([][]float64, n)
		for i := range cost {
			cost[i] = make([]float64, m)
			for j := range cost[i] {
				cost[i][j] = math.Floor(rng.Float64()*100) / 10
			}
		}
		_, total, err := Hungarian(cost)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteAssign(cost)
		if math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: hungarian %v != brute %v (cost %v)", trial, total, want, cost)
		}
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

func BenchmarkHungarian50(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	n := 50
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			cost[i][j] = rng.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Hungarian(cost); err != nil {
			b.Fatal(err)
		}
	}
}
