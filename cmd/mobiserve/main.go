// Command mobiserve runs the dispatch stack as a resident multi-tenant
// service: scenario sessions are created, advanced window by window,
// fed streaming rescue requests, queried, and closed over a JSON API
// (see README "Serving") mounted on the obs ops server next to
// /metrics and /debug/pprof.
//
// Usage:
//
//	mobiserve [-addr :8080] [-scale small] [-seed 1] [-teams N] [-episodes N] [-load-policy f] [-max-sessions N] [-queue-depth N] [-eventlog f] [-checkpoint f] [-resume] [-workers N]
//
// Startup builds the scenario, trains the SVM, optionally trains the
// RL policy for -episodes (or warm-starts it from -load-policy), then
// freezes the policy and serves. Every session owns its own simulator
// and dispatcher chain; the shared scenario/model state is read-only,
// so sessions are independent and deterministic — the same spec always
// replays the same run.
//
// On SIGINT or SIGTERM the server drains: every session quiesces at a
// dispatch-window boundary, the full session table is captured into
// -checkpoint (atomic, versioned, checksummed), and the process exits
// with code 3. Restarting with -resume restores every live session —
// simulator state, streamed requests, event-log buffers — and the
// continued runs are byte-identical to ones that never drained.
//
// -eventlog records every session's flight-recorder stream into one
// log (sessions append at close, in close order); feed it to `analyze
// timeline`. A second signal during the drain kills the process.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"mobirescue/internal/cli"
	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/serve"
	"mobirescue/internal/snapshot"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "serve the session API, /metrics, /healthz and /debug/pprof on this address")
		scale    = flag.String("scale", "small", "scenario scale: "+core.ScaleNames)
		seed     = flag.Int64("seed", 1, "scenario/model seed")
		teams    = flag.Int("teams", 0, "default fleet size for sessions that do not choose one (0 = one team per four peak-day requests, at least 6)")
		episodes = flag.Int("episodes", 0, "RL training episodes before serving (0 = serve the policy as loaded/initialized)")
		loadPol  = flag.String("load-policy", "", "warm-start the MR policy from a checkpoint before serving")
		maxSess  = flag.Int("max-sessions", 0, "live session cap (0 = 4096)")
		qDepth   = flag.Int("queue-depth", 0, "per-session command queue depth (0 = 8)")
		evlogF   = flag.String("eventlog", "", "record every session's flight-recorder stream (JSONL) to this file")
		ckptF    = flag.String("checkpoint", "mobiserve.ckpt", "drain checkpoint path written on SIGINT/SIGTERM")
		resume   = flag.Bool("resume", false, "restore live sessions from -checkpoint before serving (fresh start when it does not exist)")
		workers  = flag.Int("workers", 0, "parallelism bound for scenario building and SVM/RL training (0 = GOMAXPROCS)")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, slog.String("cmd", "mobiserve"))

	reg := obs.NewRegistry()
	reg.PublishExpvar("mobirescue")

	build := cli.Flags{Scale: *scale, Seed: *seed, Teams: *teams, Workers: *workers}
	cfg, err := build.ScenarioConfig()
	if err != nil {
		// A flag value the shared checks reject is a usage error.
		fmt.Fprintln(flag.CommandLine.Output(), err)
		flag.Usage()
		os.Exit(2)
	}
	sc, sys, err := build.Build(context.Background(), cfg, reg, logger)
	if err != nil {
		fatal(logger, err)
	}
	if *loadPol != "" {
		n, err := sys.LoadPolicy(*loadPol)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("policy warm-started", slog.String("path", *loadPol), slog.Uint64("episodes", n))
	}
	if *episodes > 0 {
		returns, err := sys.TrainRLParallel(*episodes)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("RL training complete", slog.Int("episodes", len(returns)))
	}
	world, err := core.NewSessionWorld(sys)
	if err != nil {
		fatal(logger, err)
	}

	var elog *eventlog.Log
	if *evlogF != "" {
		elog, err = eventlog.Create(*evlogF, sys.BuildManifest(*scale, sc.Config), eventlog.Options{})
		if err != nil {
			fatal(logger, err)
		}
		elog.EnableMetrics(reg)
	}

	svc, err := serve.NewService(world, serve.Config{
		MaxSessions: *maxSess,
		QueueDepth:  *qDepth,
		Log:         elog,
		Metrics:     reg,
	})
	if err != nil {
		fatal(logger, err)
	}
	if *resume {
		switch _, statErr := os.Stat(*ckptF); {
		case statErr == nil:
			if err := svc.Restore(*ckptF); err != nil {
				fatal(logger, err)
			}
			logger.Info("sessions restored from drain checkpoint",
				slog.String("path", *ckptF), slog.Int("sessions", svc.SessionCount()))
		case os.IsNotExist(statErr):
			logger.Info("no drain checkpoint; starting fresh", slog.String("path", *ckptF))
		default:
			fatal(logger, statErr)
		}
	}

	server, err := obs.StartServerWith(*addr, reg, svc.Mount)
	if err != nil {
		fatal(logger, err)
	}
	logger.Info("serving",
		slog.String("addr", server.Addr()),
		slog.String("sessions", "http://"+server.Addr()+"/api/sessions"),
		slog.String("metrics", "http://"+server.Addr()+"/metrics"))

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	<-sigCh
	go func() {
		<-sigCh
		logger.Error("second signal during drain; exiting immediately")
		os.Exit(1)
	}()

	logger.Info("draining", slog.Int("sessions", svc.SessionCount()), slog.String("checkpoint", *ckptF))
	if err := svc.Drain(*ckptF); err != nil {
		fatal(logger, err)
	}
	if err := server.Close(); err != nil {
		logger.Warn("closing server", slog.Any("err", err))
	}
	if elog != nil {
		if err := elog.Close(); err != nil {
			logger.Warn("closing event log", slog.Any("err", err))
		}
	}
	logger.Info("drain complete; resume with -resume", slog.String("checkpoint", *ckptF),
		slog.Int("exit", snapshot.StopExitCode))
	os.Exit(snapshot.StopExitCode)
}

func fatal(logger *slog.Logger, err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
