// Command mobirescue runs one dispatch method over the evaluation day and
// prints its outcome — the quickest way to exercise the full system.
//
// Usage:
//
//	mobirescue [-method mr|rescue|schedule] [-scale small|mid|full] [-episodes N] [-teams N] [-seed S] [-workers N] [-save-policy f] [-load-policy f] [-chaos profile] [-chaos-seed S] [-eventlog f] [-eventlog-timing] [-snapshot-dir d] [-snapshot-every N] [-resume] [-obs addr] [-cpuprofile f] [-memprofile f]
//
// The run always collects metrics and spans and prints the span/metric
// report on stderr at its end. With -obs the process also serves
// /metrics (Prometheus text format), /healthz, /debug/vars, and
// /debug/pprof/* on the given address for the whole run, then keeps
// serving until interrupted so the final metric values stay scrapeable.
//
// -eventlog records the run's flight-recorder stream (structured JSONL
// events from every layer — see README "Flight recorder & run diffing")
// to the given file; feed it to `analyze timeline` or `analyze diff`.
// The log is byte-identical for any -workers value. -eventlog-timing
// additionally records wall-clock fields (Decide latency, shared-cache
// snapshots) at the cost of that byte-identity.
//
// -chaos enables deterministic fault injection (flash-flood surges,
// vehicle breakdowns, sensing and dispatcher faults) and wraps the
// dispatcher in the resilient degraded-mode shell; the same -chaos-seed
// reproduces the same chaotic run. The wrapper's wall-clock Decide
// deadline is 5 s; an expiration is recorded as a typed deadline event
// in the flight recorder.
//
// -snapshot-dir makes the run crash-safe (see README "Durability &
// crash recovery"): a complete run snapshot is installed atomically at
// every -snapshot-every-th window/training-round boundary, keeping the
// last three generations. -resume continues from the latest
// valid snapshot — the resumed run's event log is byte-identical to an
// uninterrupted one — and starts fresh when none exists. On SIGINT or
// SIGTERM a snapshotting run finishes its current window, installs a
// final snapshot, flushes the event log, and exits with code 3; a
// second signal kills the process immediately.
//
// RL training (method mr) runs the parallel actor–learner pipeline:
// four logical actors (they fix seeds and merge order) roll out
// concurrently under the -workers bound. The trained policy is
// byte-identical for any -workers value. -save-policy writes a versioned,
// checksummed checkpoint once the run ends (-snapshot-dir covers
// crash safety during training); -load-policy warm-starts from one,
// skipping training when -episodes is 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"mobirescue/internal/chaos"
	"mobirescue/internal/cli"
	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/stats"
)

func main() {
	f := cli.Register(flag.CommandLine, cli.MobiRescue)
	method := flag.String("method", "mr", "dispatch method: mr, rescue, or schedule")
	f.Parse(flag.CommandLine, os.Args[1:])
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, slog.String("cmd", "mobirescue"))

	stopProfiles, err := f.StartProfiles(logger)
	if err != nil {
		fatal(logger, err)
	}
	defer stopProfiles()
	name, err := core.MethodName(*method)
	if err != nil {
		fatal(logger, err)
	}
	cfg, err := f.ScenarioConfig()
	if err != nil {
		fatal(logger, err)
	}

	reg := obs.NewRegistry()
	reg.PublishExpvar("mobirescue")
	tracer := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tracer)
	var server *obs.Server
	if f.Obs != "" {
		server, err = obs.StartServer(f.Obs, reg)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("observability server listening",
			slog.String("addr", server.Addr()),
			slog.String("metrics", "http://"+server.Addr()+"/metrics"))
	}

	_, sys, err := f.Build(ctx, cfg, reg, logger)
	if err != nil {
		fatal(logger, err)
	}
	profile, err := chaos.ProfileByName(f.Chaos)
	if err != nil {
		fatal(logger, err)
	}
	if profile.Enabled() {
		if err := sys.SetChaos(profile, f.ChaosSeed); err != nil {
			fatal(logger, err)
		}
		logger.Info("chaos enabled",
			slog.String("profile", profile.Name), slog.Int64("chaos-seed", f.ChaosSeed))
	}
	run, err := f.Open(sys, name, reg, logger)
	if errors.Is(err, core.ErrRunComplete) {
		return
	}
	if err != nil {
		fatal(logger, err)
	}
	defer run.Close()

	if f.LoadPolicy != "" {
		n, err := sys.LoadPolicy(f.LoadPolicy)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("policy warm-started",
			slog.String("path", f.LoadPolicy), slog.Uint64("episodes", n))
	}
	res, err := sys.RunMethod(name, f.Episodes)
	if err != nil {
		run.Exit(err)
	}
	if f.SavePolicy != "" {
		if err := sys.SavePolicy(f.SavePolicy); err != nil {
			fatal(logger, err)
		}
		logger.Info("policy checkpoint written",
			slog.String("path", f.SavePolicy), slog.Uint64("episodes", sys.TrainedEpisodes()))
	}
	fmt.Printf("method:        %s\n", res.Method)
	fmt.Printf("requests:      %d\n", len(res.Requests))
	fmt.Printf("served:        %d\n", res.TotalServed())
	fmt.Printf("timely served: %d (within %v)\n", res.TotalTimelyServed(), res.Config.TimelyThreshold)
	fmt.Printf("compute delay: %v per round\n", res.MeanComputeDelay().Round(100*time.Millisecond))
	if delays := res.DrivingDelaysSeconds(); len(delays) > 0 {
		cdf := stats.NewCDF(delays)
		med, _ := cdf.Quantile(0.5)
		p90, _ := cdf.Quantile(0.9)
		fmt.Printf("driving delay: median %.0fs, p90 %.0fs\n", med, p90)
	}
	if tl := res.TimelinessSeconds(); len(tl) > 0 {
		cdf := stats.NewCDF(tl)
		med, _ := cdf.Quantile(0.5)
		p90, _ := cdf.Quantile(0.9)
		fmt.Printf("timeliness:    median %.0fs, p90 %.0fs\n", med, p90)
	}
	if profile.Enabled() || res.Resilience.Any() {
		fmt.Printf("resilience:    %s\n", res.Resilience)
	}

	obs.WriteReport(os.Stderr, reg, tracer)
	if server != nil {
		// Keep serving so the final metric values stay scrapeable.
		logger.Info("run complete; serving metrics until interrupted",
			slog.String("addr", server.Addr()))
		sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		<-sigCtx.Done()
		stop()
		if err := server.Close(); err != nil {
			logger.Warn("closing observability server", slog.Any("err", err))
		}
	}
}

func fatal(logger *slog.Logger, err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
