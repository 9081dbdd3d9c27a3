// Package train implements MobiRescue's parallel actor–learner training
// pipeline, the A3C-style harness Pensieve [24] trains its dispatch DNN
// with: N logical actors replay the peak training day against a frozen
// snapshot of the current policy on per-actor seeded RNG streams, stream
// their trajectories into a channel, and a single learner absorbs them in
// fixed actor-index order.
//
// # Determinism contract
//
// The trained policy is byte-identical for any Workers value. Three rules
// make that hold, mirroring core.RunComparison's parallel-runs contract:
//
//  1. Rollouts are independent: every actor decides against the same
//     immutable policy snapshot with a private RNG seeded by
//     rl.DeriveSeed(seed, round, actor) — never by goroutine identity or
//     wall clock.
//  2. The actor count is logical, not physical: Config.Actors fixes the
//     data layout; Config.Workers only bounds how many rollouts run at
//     once.
//  3. The learner applies trajectories in actor-index order within each
//     round, reordering completions through a buffer, so the sequence of
//     Observe calls — and therefore every gradient, every replay-buffer
//     slot, every RNG draw — is independent of completion order.
//
// Within a round the pipeline is asynchronous (the learner absorbs actor
// 0's trajectory while actors 1..N-1 are still simulating); across rounds
// there is a barrier, because round r+1's snapshot must include round r's
// updates.
package train

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobirescue/internal/nn"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/rl"
)

// Exported training telemetry metric names (see README "Observability").
const (
	MetricRounds         = "mobirescue_train_rounds_total"
	MetricEpisodes       = "mobirescue_train_episodes_total"
	MetricTransitions    = "mobirescue_train_transitions_total"
	MetricRoundReward    = "mobirescue_train_round_reward_mean"
	MetricActorSeconds   = "mobirescue_train_actor_episode_seconds"
	MetricLearnerSeconds = "mobirescue_train_learner_apply_seconds"
	MetricQueueDepth     = "mobirescue_train_learner_queue_depth"
	MetricEpisodeLen     = "mobirescue_train_episode_transitions"
)

// Learner is the central policy owner: it hands actors frozen snapshots,
// absorbs their trajectories one transition at a time, and persists its
// full state. *rl.DQN satisfies it.
type Learner interface {
	// SnapshotPolicy returns an immutable deep copy of the current policy.
	SnapshotPolicy() *nn.Network
	// Epsilon is the current exploration rate, given to the round's actors.
	Epsilon() float64
	// Observe absorbs one transition (and may take a gradient step).
	Observe(t rl.Transition)
	// SaveCheckpoint writes the learner's full training state.
	SaveCheckpoint(w io.Writer, episodes uint64) error
}

// Rollout runs one training episode against the frozen policy snapshot,
// returning the trajectory in decision order plus the episode's scalar
// reward (for MobiRescue: timely served requests on the replayed day).
// Implementations must be deterministic in (round, actor, policy, epsilon,
// seed) and safe to call concurrently.
type Rollout func(ctx context.Context, round, actor int, policy *nn.Network, epsilon float64, seed int64) ([]rl.Transition, float64, error)

// Config tunes the trainer.
type Config struct {
	// Actors is the logical actor count per round — it fixes seeds and
	// merge order, so changing it changes the training run. Default 4.
	Actors int
	// Episodes is the total number of episodes to train for (the last
	// round is truncated when Actors does not divide it). Required.
	Episodes int
	// Workers bounds physical rollout concurrency: 0 means GOMAXPROCS, 1
	// forces serial rollouts. Results are byte-identical for any value.
	Workers int
	// Seed derives every actor's RNG stream via rl.DeriveSeed.
	Seed int64
	// Metrics, when non-nil, receives training telemetry (round/episode
	// counters, per-round reward, actor throughput, learner queue
	// depth). Nil disables it at zero cost.
	Metrics *obs.Registry
	// Events, when non-nil, receives one flight-recorder train_round
	// event per round (episodes, mean reward, epsilon, transitions,
	// learner loss). The trainer emits from the learner goroutine only,
	// so the stream is deterministic for any Workers value. Nil — the
	// default — is free.
	Events *eventlog.Recorder
	// StartRound is the absolute round index the loop starts at (0 for a
	// fresh run). A resumed run sets it to the number of rounds already
	// absorbed so rl.DeriveSeed — keyed by absolute round — hands every
	// actor the same stream the uninterrupted run would have.
	StartRound int
	// RoundHook, when non-nil, runs after each completed round with the
	// absolute index of the round that just finished. A non-nil error
	// aborts training and is returned from Run; crash-safe runs use it to
	// install window snapshots and to stop gracefully
	// (internal/snapshot.ErrStopRequested).
	RoundHook func(round int, stats *Stats) error
}

// Stats summarizes a training run.
type Stats struct {
	// Rewards holds one entry per episode in deterministic (round, actor)
	// order — identical for any Workers value.
	Rewards []float64
	// Episodes counts completed episodes; Transitions counts
	// learner-absorbed transitions.
	Episodes, Transitions int
}

// trainMetrics holds optional telemetry handles; the zero value is a
// free no-op.
type trainMetrics struct {
	rounds      *obs.Counter
	episodes    *obs.Counter
	transitions *obs.Counter
	roundReward *obs.Gauge
	queueDepth  *obs.Gauge
	actorSecs   *obs.Histogram
	learnSecs   *obs.Histogram
	episodeLen  *obs.Histogram
}

// Trainer coordinates the actor pool and the learner. Construct with New.
type Trainer struct {
	learner  Learner
	rollout  Rollout
	cfg      Config
	met      trainMetrics
	episodes uint64 // completed episodes, cumulative from base
}

// New validates the configuration and builds a trainer. base is the
// number of episodes the learner has already absorbed (0 for a cold
// start; the header episode count of a loaded checkpoint when
// warm-starting), so checkpoint headers stay cumulative.
func New(learner Learner, rollout Rollout, base uint64, cfg Config) (*Trainer, error) {
	if learner == nil || rollout == nil {
		return nil, fmt.Errorf("train: learner and rollout required")
	}
	if cfg.Actors <= 0 {
		cfg.Actors = 4
	}
	if cfg.Episodes <= 0 {
		return nil, fmt.Errorf("train: episodes %d must be positive", cfg.Episodes)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("train: workers %d must be >= 0", cfg.Workers)
	}
	if cfg.StartRound < 0 {
		return nil, fmt.Errorf("train: start round %d must be >= 0", cfg.StartRound)
	}
	t := &Trainer{learner: learner, rollout: rollout, cfg: cfg, episodes: base}
	if reg := cfg.Metrics; reg != nil {
		t.met = trainMetrics{
			rounds:      reg.Counter(MetricRounds, "Training rounds completed."),
			episodes:    reg.Counter(MetricEpisodes, "Actor episodes absorbed by the learner."),
			transitions: reg.Counter(MetricTransitions, "Transitions absorbed by the learner."),
			roundReward: reg.Gauge(MetricRoundReward, "Mean episode reward of the last round."),
			queueDepth:  reg.Gauge(MetricQueueDepth, "Completed trajectories waiting for in-order application."),
			actorSecs:   reg.Histogram(MetricActorSeconds, "Wall-clock seconds per actor episode.", obs.DefSecondsBuckets),
			learnSecs:   reg.Histogram(MetricLearnerSeconds, "Wall-clock seconds applying one trajectory.", obs.DefSecondsBuckets),
			episodeLen:  reg.Histogram(MetricEpisodeLen, "Transitions per actor episode.", obs.DefCountBuckets),
		}
	}
	return t, nil
}

// Episodes returns the cumulative episode count (base + completed).
func (t *Trainer) Episodes() uint64 { return atomic.LoadUint64(&t.episodes) }

// workers returns the effective physical concurrency bound (>= 1).
func (t *Trainer) workers() int {
	if t.cfg.Workers > 0 {
		return t.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// rolloutResult is one actor's finished episode.
type rolloutResult struct {
	actor  int
	traj   []rl.Transition
	reward float64
	err    error
}

// Run executes the training loop and returns per-episode statistics. On
// error (a failed rollout or context cancellation) it returns the stats
// accumulated so far alongside the error; the learner retains every
// round that completed.
func (t *Trainer) Run(ctx context.Context) (*Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	stats := &Stats{Rewards: make([]float64, 0, t.cfg.Episodes)}

	remaining := t.cfg.Episodes
	for round := t.cfg.StartRound; remaining > 0; round++ {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		n := t.cfg.Actors
		if n > remaining {
			n = remaining
		}
		if err := t.runRound(ctx, round, n, stats); err != nil {
			return stats, fmt.Errorf("train: round %d: %w", round, err)
		}
		remaining -= n
		t.met.rounds.Inc()
		if t.cfg.RoundHook != nil {
			if err := t.cfg.RoundHook(round, stats); err != nil {
				return stats, err
			}
		}
	}
	return stats, nil
}

// runRound rolls out n actor episodes against one policy snapshot (at
// most workers() at a time) and feeds the trajectories to the learner in
// actor-index order.
func (t *Trainer) runRound(ctx context.Context, round, n int, stats *Stats) error {
	snapshot := t.learner.SnapshotPolicy()
	epsilon := t.learner.Epsilon()

	results := make(chan rolloutResult, n)
	workers := t.workers()
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				actorStart := time.Now()
				traj, reward, err := t.rollout(ctx, round, i, snapshot, epsilon,
					rl.DeriveSeed(t.cfg.Seed, round, i))
				t.met.actorSecs.ObserveSince(actorStart)
				results <- rolloutResult{actor: i, traj: traj, reward: reward, err: err}
			}
		}()
	}

	// The learner side: a reorder buffer turns completion order into
	// actor-index order. Applying a trajectory is strictly sequential
	// (the learner is single-threaded by design), so the pipeline's
	// speedup comes from overlapping rollouts with application.
	pending := make(map[int]rolloutResult, n)
	nextApply := 0
	var firstErr error
	roundSum := 0.0
	roundTransitions := 0
	for received := 0; received < n; received++ {
		r := <-results
		pending[r.actor] = r
		for {
			rr, ok := pending[nextApply]
			if !ok {
				break
			}
			delete(pending, nextApply)
			nextApply++
			if rr.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("actor %d: %w", rr.actor, rr.err)
				}
				continue
			}
			if firstErr != nil {
				continue // keep ordering but stop mutating the learner
			}
			applyStart := time.Now()
			for _, tr := range rr.traj {
				t.learner.Observe(tr)
			}
			t.met.learnSecs.ObserveSince(applyStart)
			t.met.episodes.Inc()
			t.met.transitions.Add(int64(len(rr.traj)))
			t.met.episodeLen.Observe(float64(len(rr.traj)))
			stats.Rewards = append(stats.Rewards, rr.reward)
			stats.Episodes++
			stats.Transitions += len(rr.traj)
			roundTransitions += len(rr.traj)
			atomic.AddUint64(&t.episodes, 1)
			roundSum += rr.reward
		}
		t.met.queueDepth.Set(float64(len(pending)))
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	t.met.roundReward.Set(roundSum / float64(n))
	if t.cfg.Events != nil {
		e := eventlog.Event{
			Type: eventlog.TypeTrainRound, Round: round + 1,
			Episodes: n, Transitions: roundTransitions,
			Reward: roundSum / float64(n), Epsilon: epsilon,
		}
		// The Learner interface stays minimal; learners that track their
		// last minibatch loss (rl.DQN) surface it in the event.
		if ll, ok := t.learner.(interface{ LastLoss() float64 }); ok {
			e.Loss = ll.LastLoss()
		}
		t.cfg.Events.Emit(e)
	}
	return nil
}
