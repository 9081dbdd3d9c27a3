package ilp

import (
	"errors"
	"math"
	"testing"
)

// decodeFuzzMatrix turns a fuzz byte stream into a small cost matrix:
// the first two bytes pick the shape, the rest fill cells — bytes 250+
// become special values (Infeasible, NaN, -Inf, huge) so the validators
// are exercised.
func decodeFuzzMatrix(data []byte) [][]float64 {
	if len(data) < 2 {
		return nil
	}
	rows := int(data[0]%9) + 1
	cols := int(data[1]%9) + 1
	cost := make([][]float64, rows)
	k := 2
	for i := range cost {
		cost[i] = make([]float64, cols)
		for j := range cost[i] {
			if k >= len(data) {
				cost[i][j] = float64(i + j)
				continue
			}
			b := data[k]
			k++
			switch {
			case b == 255:
				cost[i][j] = Infeasible
			case b == 254:
				cost[i][j] = math.NaN()
			case b == 253:
				cost[i][j] = math.Inf(-1)
			case b == 252:
				cost[i][j] = 1e18
			case b >= 250:
				cost[i][j] = -float64(b) * 1e9
			default:
				cost[i][j] = float64(b) - 125
			}
		}
	}
	return cost
}

func checkSolverOutput(t *testing.T, cost [][]float64, assign []int, err error) {
	t.Helper()
	if err != nil && !errors.Is(err, ErrInfeasible) {
		return // validation errors carry no assignment contract
	}
	if len(assign) != len(cost) {
		t.Fatalf("assign length %d != rows %d", len(assign), len(cost))
	}
	seen := map[int]bool{}
	for i, j := range assign {
		if j < 0 {
			continue
		}
		if j >= len(cost[i]) || seen[j] {
			t.Fatalf("bad assignment %v", assign)
		}
		seen[j] = true
		if math.IsInf(cost[i][j], 1) {
			t.Fatalf("infeasible cell (%d,%d) assigned", i, j)
		}
	}
}

// FuzzHungarian: arbitrary shapes and special values must never panic,
// and every returned assignment must be a valid matching.
func FuzzHungarian(f *testing.F) {
	f.Add([]byte{3, 3, 10, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add([]byte{2, 2, 255, 10, 10, 255})
	f.Add([]byte{1, 1, 254})
	f.Add([]byte{4, 2, 253, 252, 251, 250, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		cost := decodeFuzzMatrix(data)
		if cost == nil {
			return
		}
		assign, _, err := Hungarian(cost)
		checkSolverOutput(t, cost, assign, err)
	})
}
