package core

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mobirescue/internal/obs"
	"mobirescue/internal/train"
)

// freshTrainSystem builds a brand-new System over the shared scenario.
// Training mutates the learner, so the determinism tests must never use
// the shared sysVal fixture.
func freshTrainSystem(t testing.TB, workers int) *System {
	t.Helper()
	cfg := DefaultSystemConfig()
	cfg.TrainEpisodes = 5
	cfg.TrainActors = 3 // logical layout: fixed across worker counts
	cfg.Workers = workers
	sys, err := NewSystem(testScenario(t), cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// checkpointBytes serializes the learner's full state (networks,
// optimizer, counters, RNG cursor) for byte-level comparison.
func checkpointBytes(t testing.TB, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.MR.Agent().SaveCheckpoint(&buf, sys.TrainedEpisodes()); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	return buf.Bytes()
}

// TestParallelTrainMatchesSerial is the determinism pin for the
// actor–learner trainer (ISSUE satellite 1): the checkpoint bytes and
// the per-episode reward series must be byte-identical for Workers=1
// (serial execution) and Workers=4/8 (parallel execution), because the
// logical actor count — not the physical worker count — fixes seeds,
// snapshots, and merge order.
func TestParallelTrainMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel-vs-serial training pin needs full episodes")
	}

	serial := freshTrainSystem(t, 1)
	serialRewards, err := serial.TrainRLParallel(0)
	if err != nil {
		t.Fatalf("serial TrainRLParallel: %v", err)
	}
	if len(serialRewards) != 5 {
		t.Fatalf("serial rewards = %d episodes, want 5", len(serialRewards))
	}
	serialCkpt := checkpointBytes(t, serial)

	for _, workers := range []int{4, 8} {
		sys := freshTrainSystem(t, workers)
		rewards, err := sys.TrainRLParallel(0)
		if err != nil {
			t.Fatalf("Workers=%d TrainRLParallel: %v", workers, err)
		}
		if len(rewards) != len(serialRewards) {
			t.Fatalf("Workers=%d produced %d episodes, serial %d",
				workers, len(rewards), len(serialRewards))
		}
		for i := range rewards {
			if rewards[i] != serialRewards[i] {
				t.Errorf("Workers=%d episode %d reward = %v, serial %v",
					workers, i, rewards[i], serialRewards[i])
			}
		}
		if got := checkpointBytes(t, sys); !bytes.Equal(got, serialCkpt) {
			t.Errorf("Workers=%d checkpoint differs from serial (%d vs %d bytes)",
				workers, len(got), len(serialCkpt))
		}
		if sys.TrainedEpisodes() != serial.TrainedEpisodes() {
			t.Errorf("Workers=%d trained %d episodes, serial %d",
				workers, sys.TrainedEpisodes(), serial.TrainedEpisodes())
		}
	}
}

// TestRolloutsLogNoRunComplete pins that training rollouts run without
// the simulator's logger: a trained MobiRescue run logs exactly one
// "run complete" line, the evaluation's, whatever its episode count.
func TestRolloutsLogNoRunComplete(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := DefaultSystemConfig()
	cfg.Logger = slog.New(slog.NewTextHandler(&logBuf, nil))
	sys, err := NewSystem(testScenario(t), cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sys.RunMethod("mr", 2); err != nil {
		t.Fatalf("RunMethod: %v", err)
	}
	if n := strings.Count(logBuf.String(), `msg="run complete"`); n != 1 {
		t.Errorf("%d \"run complete\" records, want 1 (the evaluation's):\n%s", n, logBuf.String())
	}
}

// TestTrainCheckpointRoundTrip exercises the full save → load → resume
// path at the System level: a warm-started system restores the exact
// learner state and continues counting episodes cumulatively.
func TestTrainCheckpointRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint round trip trains real episodes")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")

	first := freshTrainSystem(t, 2)
	if _, err := first.TrainRLParallel(3); err != nil {
		t.Fatalf("TrainRLParallel: %v", err)
	}
	if err := first.SavePolicy(path); err != nil {
		t.Fatalf("SavePolicy: %v", err)
	}
	want := checkpointBytes(t, first)

	second := freshTrainSystem(t, 2)
	episodes, err := second.LoadPolicy(path)
	if err != nil {
		t.Fatalf("LoadPolicy: %v", err)
	}
	if episodes != 3 || second.TrainedEpisodes() != 3 {
		t.Fatalf("restored episodes = %d (TrainedEpisodes %d), want 3",
			episodes, second.TrainedEpisodes())
	}
	if got := checkpointBytes(t, second); !bytes.Equal(got, want) {
		t.Fatal("restored learner state differs from saved checkpoint")
	}

	// Resumed training keeps the cumulative count.
	if _, err := second.TrainRLParallel(2); err != nil {
		t.Fatalf("resumed TrainRLParallel: %v", err)
	}
	if second.TrainedEpisodes() != 5 {
		t.Errorf("after resume TrainedEpisodes = %d, want 5", second.TrainedEpisodes())
	}
}

// TestTrainRLParallelCheckpointCadence pins the system's checkpoint
// cadence: training writes no checkpoint file, SavePolicy writes one
// whose header counts every trained episode, and trainer metrics reach
// the registry.
func TestTrainRLParallelCheckpointCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("cadence test trains real episodes")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cadence.ckpt")
	cfg := DefaultSystemConfig()
	cfg.TrainEpisodes = 4
	cfg.TrainActors = 2
	cfg.Workers = 2
	cfg.Metrics = obs.NewRegistry()
	sys, err := NewSystem(testScenario(t), cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if _, err := sys.TrainRLParallel(0); err != nil {
		t.Fatalf("TrainRLParallel: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("training wrote %d files (err %v), want none", len(entries), err)
	}
	if err := sys.SavePolicy(path); err != nil {
		t.Fatalf("SavePolicy(%s): %v", path, err)
	}
	loaded := freshTrainSystem(t, 1)
	episodes, err := loaded.LoadPolicy(path)
	if err != nil {
		t.Fatalf("LoadPolicy(%s): %v", path, err)
	}
	if episodes != 4 {
		t.Errorf("checkpoint header episodes = %d, want 4", episodes)
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap[train.MetricEpisodes]; got != int64(4) {
		t.Errorf("%s = %v, want 4", train.MetricEpisodes, got)
	}
}

// BenchmarkTrainEpisodes compares the actor–learner pipeline's serial
// execution (Workers=1) against parallel rollouts at Workers=4.
//
//	go test ./internal/core -bench TrainEpisodes -benchtime 1x
func BenchmarkTrainEpisodes(b *testing.B) {
	const episodes = 4
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := freshTrainSystem(b, 1)
			b.StartTimer()
			if _, err := sys.TrainRLParallel(episodes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-w4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := freshTrainSystem(b, 4)
			cfg := sys.Config
			cfg.TrainActors = 4
			sys.Config = cfg
			b.StartTimer()
			if _, err := sys.TrainRLParallel(episodes); err != nil {
				b.Fatal(err)
			}
		}
	})
}
