package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mobirescue/internal/sim"
)

// updateGolden rewrites the golden-replay file instead of comparing
// against it:
//
//	go test ./internal/core -run TestGoldenReplay -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden replay files in testdata/")

const goldenReplayPath = "testdata/golden_replay.json"

// goldenMethod is the pinned end-to-end summary of one dispatch method's
// evaluation-day replay: how many requests it served (and served timely),
// the hourly service profile, delay and fleet-usage aggregates, and the
// paper's Equation 5 reward per hourly window. Floats are rounded to six
// decimals so the pin is robust to cross-architecture floating-point
// noise while still catching any behavioral change.
type goldenMethod struct {
	Requests          int       `json:"requests"`
	Served            int       `json:"served"`
	TimelyServed      int       `json:"timely_served"`
	TimelyPerHour     []int     `json:"timely_per_hour"`
	MeanDrivingDelayS float64   `json:"mean_driving_delay_s"`
	MeanTimelinessS   float64   `json:"mean_timeliness_s"`
	ServingPerHour    []float64 `json:"serving_per_hour"`
	RewardPerHour     []float64 `json:"reward_per_hour"`
}

// goldenReplay is the whole golden file: the fixed-seed scenario's
// training trace plus every method's evaluation summary.
type goldenReplay struct {
	Seed         int64                   `json:"seed"`
	TrainRewards []float64               `json:"train_rewards"`
	Methods      map[string]goldenMethod `json:"methods"`
}

func round6(x float64) float64 {
	return math.Round(x*1e6) / 1e6
}

func round6Slice(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = round6(x)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summarizeResult reduces a sim.Result to its golden summary. The reward
// uses the dispatcher's own Equation 5 weights so the pin covers the
// reward shaping end to end: r = α·N^q − β·T^d − γ·N^m per hour.
func summarizeResult(res *sim.Result, alpha, beta, gamma float64) goldenMethod {
	return goldenMethod{
		Requests:          len(res.Requests),
		Served:            res.TotalServed(),
		TimelyServed:      res.TotalTimelyServed(),
		TimelyPerHour:     res.TimelyServedPerHour(),
		MeanDrivingDelayS: round6(mean(res.DrivingDelaysSeconds())),
		MeanTimelinessS:   round6(mean(res.TimelinessSeconds())),
		ServingPerHour:    round6Slice(res.ServingPerHour()),
		RewardPerHour:     round6Slice(res.RewardPerHour(alpha, beta, gamma)),
	}
}

// TestGoldenReplay is the golden-replay regression suite (ISSUE
// satellite 2): it replays the fixed-seed small scenario end to end —
// parallel RL training followed by all three dispatch methods on the
// evaluation day — and pins the full summary against a checked-in
// golden file. Any change to the simulator, the dispatchers, the
// trainer, or the reward shaping shows up as a diff here; intentional
// changes re-baseline with -update-golden.
func TestGoldenReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay runs the full training + evaluation pipeline")
	}
	cfg := DefaultSystemConfig()
	cfg.TrainEpisodes = 2
	cfg.TrainActors = 2
	cfg.Workers = 2
	sys, err := NewSystem(testScenario(t), cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	rewards, err := sys.TrainRLParallel(0)
	if err != nil {
		t.Fatalf("TrainRLParallel: %v", err)
	}

	mrCfg := sys.Config.MR
	got := goldenReplay{
		Seed:         cfg.Seed,
		TrainRewards: round6Slice(rewards),
		Methods:      make(map[string]goldenMethod, len(MethodNames)),
	}
	for _, method := range MethodNames {
		res, err := sys.RunMethod(method, 0)
		if err != nil {
			t.Fatalf("RunMethod(%s): %v", method, err)
		}
		got.Methods[method] = summarizeResult(res, mrCfg.Alpha, mrCfg.Beta, mrCfg.Gamma)
	}

	gotJSON, err := json.MarshalIndent(&got, "", "  ")
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	gotJSON = append(gotJSON, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenReplayPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReplayPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenReplayPath)
		return
	}

	want, err := os.ReadFile(goldenReplayPath)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create it): %v", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Errorf("golden replay drifted from %s (re-baseline intentional changes with -update-golden):\n%s",
			goldenReplayPath, diffLines(want, gotJSON))
	}
}

// diffLines renders a small line diff of the golden mismatch so the
// failure message shows what moved without an external diff tool.
func diffLines(want, got []byte) string {
	wantLines := bytes.Split(want, []byte("\n"))
	gotLines := bytes.Split(got, []byte("\n"))
	var buf bytes.Buffer
	n := len(wantLines)
	if len(gotLines) > n {
		n = len(gotLines)
	}
	shown := 0
	for i := 0; i < n && shown < 40; i++ {
		var w, g []byte
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if !bytes.Equal(w, g) {
			fmt.Fprintf(&buf, "line %d:\n  golden: %s\n  got:    %s\n", i+1, w, g)
			shown++
		}
	}
	if shown == 0 {
		buf.WriteString("(byte-level difference only, e.g. trailing whitespace)")
	}
	return buf.String()
}
