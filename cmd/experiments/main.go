// Command experiments regenerates the paper's evaluation figures
// (Figures 9–16): it builds the scenario, trains the SVM and the RL
// dispatcher, runs MobiRescue and both baselines over the evaluation
// day, and prints every figure's series.
//
// Usage:
//
//	experiments [-scale small|mid|full] [-episodes N] [-teams N] [-seed S] [-workers N] [-save-policy f] [-load-policy f] [-fig all|9|...|16] [-chaos profile] [-chaos-seed S] [-eventlog f] [-eventlog-timing] [-snapshot-dir d] [-snapshot-every N] [-resume] [-obs addr] [-cpuprofile f] [-memprofile f]
//
// RL training uses the parallel actor–learner pipeline: four logical
// actors roll out under the -workers concurrency bound; the trained
// policy is byte-identical for any -workers value.
// -load-policy warm-starts from a checkpoint
// (train on top with -episodes, or pass -episodes -1 to skip training);
// -save-policy writes the trained state for later runs.
//
// -eventlog records the whole session — training rounds, the fault-free
// comparison, and any chaos re-run — as one flight-recorder stream
// (structured JSONL; see README "Flight recorder & run diffing") for
// `analyze timeline` / `analyze diff`. The manifest records the
// configuration at log creation (chaos off; the chaos re-run's fault
// events still appear in the stream).
//
// -chaos re-runs the comparison under deterministic fault injection
// after the fault-free pass and prints each method's degradation
// (resilience report); the same -chaos-seed reproduces the same run.
//
// -snapshot-dir makes the expensive training phase crash-safe: a
// checksummed snapshot is installed after every -snapshot-every-th
// training round (keeping the newest three), and -resume with
// the same flags continues from the latest valid one with a
// byte-identical -eventlog stream. The three-method comparison is not
// snapshotted mid-run: a resume after training re-executes it in full,
// deterministically. SIGINT/SIGTERM request a graceful stop — the run
// finishes its current round, installs a final snapshot, flushes the
// event log, and exits with code 3. A resume of a finished run (the
// terminal snapshot says so) exits 0 without re-running anything.
//
// The binary always collects metrics and spans and prints an end-of-run
// report (top spans, key counters) on stderr. With -obs it additionally
// serves /metrics, /healthz, /debug/vars and /debug/pprof/* live during
// the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"mobirescue/internal/chaos"
	"mobirescue/internal/cli"
	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/sim"
	"mobirescue/internal/snapshot"
	"mobirescue/internal/stats"
)

func main() {
	f := cli.Register(flag.CommandLine, cli.Experiments)
	fig := flag.String("fig", "all", "which figure to print: all, 9..16, latency")
	f.Parse(flag.CommandLine, os.Args[1:])
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, slog.String("cmd", "experiments"))

	stopProfiles, err := f.StartProfiles(logger)
	if err != nil {
		fatal(logger, err)
	}
	defer stopProfiles()

	reg := obs.NewRegistry()
	reg.PublishExpvar("mobirescue")
	tracer := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tracer)
	if f.Obs != "" {
		server, err := obs.StartServer(f.Obs, reg)
		if err != nil {
			fatal(logger, err)
		}
		defer server.Close()
		logger.Info("observability server listening", slog.String("addr", server.Addr()))
	}

	cfg, err := f.ScenarioConfig()
	if err != nil {
		fatal(logger, err)
	}
	sc, sys, err := f.Build(ctx, cfg, reg, logger)
	if err != nil {
		fatal(logger, err)
	}
	defer obs.WriteReport(os.Stderr, reg, tracer)

	// Snapshots cover the training phase, keyed to the MobiRescue method;
	// the comparison re-executes deterministically on resume.
	run, err := f.Open(sys, "MobiRescue", reg, logger)
	if errors.Is(err, core.ErrRunComplete) {
		return
	}
	if err != nil {
		fatal(logger, err)
	}
	defer run.Close()
	if run.Resume != nil && run.Resume.Phase == snapshot.PhaseEval {
		fatal(logger, fmt.Errorf("snapshot is mid-evaluation from a single-method run; resume it with mobirescue -resume"))
	}
	fmt.Printf("# scenario: %d people, %d landmarks, %d segments, %d teams\n",
		len(sc.Eval.Data.People), sc.City.Graph.NumLandmarks(), sc.City.Graph.NumSegments(), sys.Teams)
	fmt.Printf("# eval day %d (peak), %d ground-truth requests\n",
		sc.Eval.PeakRequestDay(), len(core.RequestsForDay(sc.Eval, sc.Eval.PeakRequestDay())))

	if f.LoadPolicy != "" {
		n, err := sys.LoadPolicy(f.LoadPolicy)
		if err != nil {
			fatal(logger, err)
		}
		fmt.Printf("# warm-started policy from %s (%d episodes)\n", f.LoadPolicy, n)
	}
	var trainRewards []float64
	if f.Episodes >= 0 {
		start := time.Now()
		if trainRewards, err = sys.TrainRLParallel(f.Episodes); err != nil {
			run.Exit(err)
		}
		// The wall time goes to the log so stdout stays byte-comparable
		// between runs.
		logger.Info("RL training complete", slog.Int("episodes", len(trainRewards)),
			slog.Duration("elapsed", time.Since(start).Round(time.Millisecond)))
		fmt.Printf("# trained RL for %d episodes (timely served per episode: %v)\n",
			len(trainRewards), trainRewards)
	}
	if f.SavePolicy != "" {
		if err := sys.SavePolicy(f.SavePolicy); err != nil {
			fatal(logger, err)
		}
		fmt.Printf("# policy checkpoint written to %s (%d episodes)\n", f.SavePolicy, sys.TrainedEpisodes())
	}

	cmp, err := sys.RunComparison()
	if err != nil {
		fatal(logger, err)
	}
	want := func(name string) bool { return *fig == "all" || *fig == name }

	if want("9") {
		printHourlyInt("Figure 9: timely served rescue requests per hour", cmp.Fig9())
	}
	if want("10") {
		printCDFs("Figure 10: CDF of timely served requests per team", cmp.Fig10(), "requests")
	}
	if want("11") {
		printHourlyFloat("Figure 11: mean driving delay per hour (s)", cmp.Fig11())
	}
	if want("12") {
		printCDFs("Figure 12: CDF of driving delays (s)", cmp.Fig12(), "seconds")
	}
	if want("13") {
		printCDFs("Figure 13: CDF of rescue timeliness (s)", cmp.Fig13(), "seconds")
	}
	if want("14") {
		printHourlyFloat("Figure 14: serving rescue teams per hour", cmp.Fig14())
	}
	if want("15") || want("16") {
		pq, err := sys.PredictionQuality()
		if err != nil {
			fatal(logger, err)
		}
		if want("15") {
			printCDFs("Figure 15: CDF of per-segment prediction accuracy", map[string]*stats.CDF{
				"MobiRescue(SVM)": pq.SVMAccuracy,
				"Rescue(TSA)":     pq.TSAAccuracy,
			}, "accuracy")
			fmt.Printf("overall accuracy: SVM %.3f vs TSA %.3f\n\n",
				pq.SVMOverall.Accuracy(), pq.TSAOverall.Accuracy())
		}
		if want("16") {
			printCDFs("Figure 16: CDF of per-segment prediction precision", map[string]*stats.CDF{
				"MobiRescue(SVM)": pq.SVMPrecision,
				"Rescue(TSA)":     pq.TSAPrecision,
			}, "precision")
			fmt.Printf("overall precision: SVM %.3f vs TSA %.3f\n\n",
				pq.SVMOverall.Precision(), pq.TSAOverall.Precision())
		}
	}
	if want("latency") || *fig == "all" {
		fmt.Println("Dispatch computation delay (Section V-C3):")
		for _, name := range core.MethodNames {
			fmt.Printf("  %-11s %v per round\n", name, cmp.Results[name].MeanComputeDelay().Round(100*time.Millisecond))
		}
		fmt.Println()
	}

	fmt.Println("Summary (evaluation day):")
	fmt.Printf("  %-11s %8s %8s %14s %14s %12s\n", "method", "served", "timely", "medDelay(s)", "medTimeli(s)", "meanServing")
	for _, name := range core.MethodNames {
		res := cmp.Results[name]
		delays := stats.NewCDF(res.DrivingDelaysSeconds())
		timeli := stats.NewCDF(res.TimelinessSeconds())
		medD, _ := delays.Quantile(0.5)
		medT, _ := timeli.Quantile(0.5)
		meanServing := 0.0
		for _, r := range res.Rounds {
			meanServing += float64(r.Serving)
		}
		meanServing /= float64(len(res.Rounds))
		fmt.Printf("  %-11s %8d %8d %14.0f %14.0f %12.1f\n",
			name, res.TotalServed(), res.TotalTimelyServed(), medD, medT, meanServing)
	}

	profile, err := chaos.ProfileByName(f.Chaos)
	if err != nil {
		fatal(logger, err)
	}
	if profile.Enabled() {
		if err := runChaosComparison(sys, cmp, profile, f.ChaosSeed, logger); err != nil {
			fatal(logger, err)
		}
	}
	if err := sys.InstallDone("MobiRescue"); err != nil {
		fatal(logger, err)
	}
}

// runChaosComparison re-runs the three-method comparison under the
// chaos profile and prints each method's degradation against the
// fault-free results already in base.
func runChaosComparison(sys *core.System, base *core.Comparison, profile chaos.Profile, seed int64, logger *slog.Logger) error {
	logger.Info("re-running comparison under chaos",
		slog.String("profile", profile.Name), slog.Int64("chaos-seed", seed))
	if err := sys.SetChaos(profile, seed); err != nil {
		return err
	}
	defer func() {
		if err := sys.SetChaos(chaos.Off(), 0); err != nil {
			logger.Warn("disabling chaos", slog.Any("err", err))
		}
	}()
	chaotic, err := sys.RunComparison()
	if err != nil {
		return err
	}
	fmt.Printf("\nChaos comparison (profile %s, seed %d):\n", profile.Name, seed)
	for _, name := range core.MethodNames {
		if err := sim.WriteResilienceReport(os.Stdout, base.Results[name], chaotic.Results[name]); err != nil {
			return err
		}
	}
	return nil
}

func fatal(logger *slog.Logger, err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

func sortedNames(m map[string][]int, mf map[string][]float64, mc map[string]*stats.CDF) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	for n := range mf {
		names = append(names, n)
	}
	for n := range mc {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printHourlyInt(title string, series map[string][]int) {
	fmt.Println(title)
	names := sortedNames(series, nil, nil)
	fmt.Printf("  hour %s\n", strings.Join(names, " "))
	hours := 0
	for _, s := range series {
		if len(s) > hours {
			hours = len(s)
		}
	}
	for h := 0; h < hours; h++ {
		fmt.Printf("  %4d", h)
		for _, n := range names {
			fmt.Printf(" %*d", len(n), series[n][h])
		}
		fmt.Println()
	}
	fmt.Println()
}

func printHourlyFloat(title string, series map[string][]float64) {
	fmt.Println(title)
	names := sortedNames(nil, series, nil)
	fmt.Printf("  hour %s\n", strings.Join(names, " "))
	hours := 0
	for _, s := range series {
		if len(s) > hours {
			hours = len(s)
		}
	}
	for h := 0; h < hours; h++ {
		fmt.Printf("  %4d", h)
		for _, n := range names {
			fmt.Printf(" %*.1f", len(n), series[n][h])
		}
		fmt.Println()
	}
	fmt.Println()
}

func printCDFs(title string, cdfs map[string]*stats.CDF, unit string) {
	fmt.Println(title)
	names := sortedNames(nil, nil, cdfs)
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	fmt.Printf("  %-18s", "quantile("+unit+")")
	for _, q := range quantiles {
		fmt.Printf(" %8.0f%%", q*100)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("  %-18s", n)
		for _, q := range quantiles {
			v, err := cdfs[n].Quantile(q)
			if err != nil {
				fmt.Printf(" %9s", "-")
				continue
			}
			fmt.Printf(" %9.2f", v)
		}
		fmt.Println()
	}
	fmt.Println()
}
