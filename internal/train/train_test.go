package train

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mobirescue/internal/nn"
	"mobirescue/internal/obs"
	"mobirescue/internal/rl"
)

// fakeLearner records everything the trainer feeds it, in order. Its
// checkpoint bytes are a pure function of that history, so two training
// runs produce identical checkpoints iff the learner saw identical
// Observe sequences — exactly the property the determinism tests pin.
type fakeLearner struct {
	mu        sync.Mutex
	net       *nn.Network
	observed  []rl.Transition
	snapshots int
	saveErr   error
}

func newFakeLearner(t testing.TB) *fakeLearner {
	t.Helper()
	net, err := nn.New(1, []int{2, 3, 2}, nn.ActReLU, nn.ActLinear)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeLearner{net: net}
}

func (f *fakeLearner) SnapshotPolicy() *nn.Network {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.snapshots++
	return f.net.Clone()
}

func (f *fakeLearner) Epsilon() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Depends on absorbed history: actors of the same round must all see
	// the same value regardless of interleaving.
	return 1.0 / float64(1+len(f.observed))
}

func (f *fakeLearner) Observe(t rl.Transition) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observed = append(f.observed, t)
}

func (f *fakeLearner) SaveCheckpoint(w io.Writer, episodes uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.saveErr != nil {
		return f.saveErr
	}
	if _, err := fmt.Fprintf(w, "episodes=%d\n", episodes); err != nil {
		return err
	}
	for _, tr := range f.observed {
		if _, err := fmt.Fprintf(w, "%v|%d|%v\n", tr.State, tr.Action, tr.Reward); err != nil {
			return err
		}
	}
	return nil
}

// markerRollout returns a deterministic rollout whose transitions encode
// (round, actor, seed, epsilon), with per-actor sleeps arranged so that
// under parallel execution completions arrive badly out of order (actor
// 0 finishes last).
func markerRollout(actors int, jitter time.Duration) Rollout {
	return func(_ context.Context, round, actor int, policy *nn.Network, epsilon float64, seed int64) ([]rl.Transition, float64, error) {
		if jitter > 0 {
			time.Sleep(time.Duration(actors-actor) * jitter)
		}
		traj := make([]rl.Transition, 1+actor%3)
		for i := range traj {
			traj[i] = rl.Transition{
				State:  []float64{float64(round), float64(actor), float64(seed % 1000), epsilon},
				Action: i,
				Reward: float64(round*100 + actor),
			}
		}
		return traj, float64(round*1000 + actor), nil
	}
}

func runOnce(t *testing.T, workers int, cfg Config) (*fakeLearner, *Stats, []byte) {
	t.Helper()
	l := newFakeLearner(t)
	cfg.Workers = workers
	tr, err := New(l, markerRollout(cfg.Actors, 2*time.Millisecond), 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := l.SaveCheckpoint(&ckpt, tr.Episodes()); err != nil {
		t.Fatal(err)
	}
	return l, stats, ckpt.Bytes()
}

func TestTrainerDeterministicAcrossWorkers(t *testing.T) {
	cfg := Config{Actors: 5, Episodes: 13, Seed: 42}
	baseLearner, baseStats, baseCkpt := runOnce(t, 1, cfg)
	for _, workers := range []int{2, 4, 8} {
		l, stats, ckpt := runOnce(t, workers, cfg)
		if !reflect.DeepEqual(l.observed, baseLearner.observed) {
			t.Fatalf("Workers=%d: learner saw a different transition sequence", workers)
		}
		if !reflect.DeepEqual(stats.Rewards, baseStats.Rewards) {
			t.Fatalf("Workers=%d: rewards %v != %v", workers, stats.Rewards, baseStats.Rewards)
		}
		if !bytes.Equal(ckpt, baseCkpt) {
			t.Fatalf("Workers=%d: checkpoint bytes differ", workers)
		}
	}
	// Sanity on the deterministic layout itself.
	if baseStats.Episodes != 13 {
		t.Fatalf("episodes=%d, want 13", baseStats.Episodes)
	}
	// Rewards must be in (round, actor) order: round-major, actor-minor,
	// three rounds of at most five actors.
	want := []float64{0, 1, 2, 3, 4, 1000, 1001, 1002, 1003, 1004, 2000, 2001, 2002}
	if !reflect.DeepEqual(baseStats.Rewards, want) {
		t.Fatalf("reward order %v, want %v", baseStats.Rewards, want)
	}
}

func TestTrainerSnapshotAndEpsilonPerRound(t *testing.T) {
	l, _, _ := runOnce(t, 4, Config{Actors: 3, Episodes: 9, Seed: 7})
	if l.snapshots != 3 {
		t.Errorf("snapshots = %d, want one per round (3)", l.snapshots)
	}
	// Every transition of a round must carry the same epsilon (index 3 of
	// the marker state): actors snapshot it at round start, not mid-round.
	perRound := make(map[float64]map[float64]bool)
	for _, tr := range l.observed {
		round, eps := tr.State[0], tr.State[3]
		if perRound[round] == nil {
			perRound[round] = make(map[float64]bool)
		}
		perRound[round][eps] = true
	}
	for round, epsSet := range perRound {
		if len(epsSet) != 1 {
			t.Errorf("round %v saw %d distinct epsilons, want 1", round, len(epsSet))
		}
	}
}

func TestTrainerDistinctActorSeeds(t *testing.T) {
	l, _, _ := runOnce(t, 2, Config{Actors: 4, Episodes: 8, Seed: 3})
	seeds := make(map[[2]float64]float64) // (round, actor) -> seed marker
	distinct := make(map[float64]bool)
	for _, tr := range l.observed {
		key := [2]float64{tr.State[0], tr.State[1]}
		if prev, ok := seeds[key]; ok && prev != tr.State[2] {
			t.Fatalf("seed for %v changed within an episode", key)
		}
		seeds[key] = tr.State[2]
		distinct[tr.State[2]] = true
	}
	if len(distinct) < 2 {
		t.Errorf("actor seeds not differentiated: %v", distinct)
	}
}

func TestTrainerValidation(t *testing.T) {
	l := newFakeLearner(t)
	rollout := markerRollout(2, 0)
	if _, err := New(nil, rollout, 0, Config{Episodes: 1}); err == nil {
		t.Error("nil learner should error")
	}
	if _, err := New(l, nil, 0, Config{Episodes: 1}); err == nil {
		t.Error("nil rollout should error")
	}
	if _, err := New(l, rollout, 0, Config{Episodes: 0}); err == nil {
		t.Error("zero episodes should error")
	}
	if _, err := New(l, rollout, 0, Config{Episodes: 1, Workers: -1}); err == nil {
		t.Error("negative workers should error")
	}
}

func TestTrainerRolloutErrorStopsLearner(t *testing.T) {
	l := newFakeLearner(t)
	failing := func(_ context.Context, round, actor int, _ *nn.Network, _ float64, _ int64) ([]rl.Transition, float64, error) {
		if actor == 1 {
			return nil, 0, fmt.Errorf("boom")
		}
		return []rl.Transition{{Action: actor, Reward: float64(actor)}}, float64(actor), nil
	}
	tr, err := New(l, failing, 0, Config{Actors: 4, Episodes: 4, Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "actor 1") {
		t.Fatalf("err = %v, want actor 1 failure", err)
	}
	// Actor 0 (before the failure in merge order) was applied; actors 2
	// and 3 (after it) must not have mutated the learner.
	if stats.Episodes != 1 || len(l.observed) != 1 || l.observed[0].Action != 0 {
		t.Errorf("learner absorbed %d episodes (%d transitions), want exactly actor 0",
			stats.Episodes, len(l.observed))
	}
}

func TestTrainerContextCancellation(t *testing.T) {
	l := newFakeLearner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := New(l, markerRollout(2, 0), 0, Config{Actors: 2, Episodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(ctx); err == nil {
		t.Error("cancelled context should abort the run")
	}
	if len(l.observed) != 0 {
		t.Errorf("learner mutated after cancellation: %d transitions", len(l.observed))
	}
}

func TestSaveCheckpointFileAtomicOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.ckpt")
	l := newFakeLearner(t)
	if err := SaveCheckpointFile(path, l, 1); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the installed checkpoint untouched and
	// clean up its temp file.
	l.saveErr = fmt.Errorf("disk on fire")
	if err := SaveCheckpointFile(path, l, 2); err == nil {
		t.Fatal("expected save failure")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("failed save clobbered the existing checkpoint")
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("temp files leaked: %d entries", len(entries))
	}
	if err := SaveCheckpointFile("", l, 1); err == nil {
		t.Error("empty path should error")
	}
}

func TestLoadCheckpointFileMissing(t *testing.T) {
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "nope.ckpt"), nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestTrainerMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	l := newFakeLearner(t)
	tr, err := New(l, markerRollout(3, time.Millisecond), 0, Config{
		Actors: 3, Episodes: 6, Workers: 3, Seed: 9, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{
		MetricRounds, MetricEpisodes, MetricTransitions,
		MetricRoundReward, MetricActorSeconds, MetricLearnerSeconds,
		MetricQueueDepth, MetricEpisodeLen,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metric %s not exported", name)
		}
	}
	snap := reg.Snapshot()
	if got := snap[MetricEpisodes]; got != int64(6) {
		t.Errorf("%s = %v, want 6", MetricEpisodes, got)
	}
}

// TestDQNLearnerIntegration drives the real DQN learner through the
// trainer on a synthetic trajectory stream and pins byte-identical
// checkpoints across worker counts — the same property the core-level
// TestParallelTrainMatchesSerial pins end-to-end through the simulator.
func TestDQNLearnerIntegration(t *testing.T) {
	run := func(workers int) []byte {
		cfg := rl.DefaultDQNConfig()
		cfg.Hidden = []int{8}
		cfg.LearnStart = 4
		cfg.BatchSize = 4
		cfg.BufferSize = 64
		cfg.Seed = 5
		agent, err := rl.NewDQN(3, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rollout := func(_ context.Context, round, actor int, policy *nn.Network, epsilon float64, seed int64) ([]rl.Transition, float64, error) {
			ap, err := rl.NewActor(policy, epsilon, seed)
			if err != nil {
				return nil, 0, err
			}
			state := []float64{float64(round), float64(actor), 0}
			total := 0.0
			for i := 0; i < 5; i++ {
				a := ap.SelectAction(state, nil)
				next := []float64{float64(round), float64(actor), float64(i + 1)}
				ap.Observe(rl.Transition{
					State: state, Action: a, Reward: float64(a),
					NextState: next, Done: i == 4,
				})
				total += float64(a)
				state = next
			}
			return ap.Trajectory(), total, nil
		}
		tr, err := New(agent, rollout, 0, Config{Actors: 4, Episodes: 8, Workers: workers, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := agent.SaveCheckpoint(&buf, tr.Episodes()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	for _, workers := range []int{4, 8} {
		if !bytes.Equal(run(workers), serial) {
			t.Fatalf("Workers=%d: DQN checkpoint differs from serial", workers)
		}
	}
}
