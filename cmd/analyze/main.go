// Command analyze is the offline analysis tool: the paper's
// dataset-measurement section (Section III) plus the flight-recorder
// toolchain built on internal/obs/eventlog.
//
// Usage:
//
//	analyze [-scale small|mid|full] [-seed S] [-out table1|fig2|...|fig6|all]
//	analyze timeline <run.jsonl>
//	analyze diff <a.jsonl> <b.jsonl>
//
// With no subcommand it reproduces Table I and Figures 2–6 over the
// synthetic Hurricane-Florence mobility dataset (the original mode).
// Any other first word is a usage error.
//
// timeline reconstructs per-window served/active/reward curves — and,
// when the log contains faults, the perturbation-and-recovery
// resilience summary — from a flight-recorder event log written with
// `-eventlog` (see README "Flight recorder & run diffing").
//
// diff compares two event logs window by window and pinpoints the
// first divergence. Exit status 1 when the logs diverge or are not
// comparable, so CI can assert determinism with a single command.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mobirescue/internal/core"
	"mobirescue/internal/obs/eventlog"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "timeline":
			runTimeline(os.Args[2:])
			return
		case "diff":
			runDiff(os.Args[2:])
			return
		}
	}
	runFigures(os.Args[1:])
}

// runTimeline prints per-window timelines (and resilience curves) from
// a flight-recorder event log.
func runTimeline(args []string) {
	fs := flag.NewFlagSet("analyze timeline", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("timeline: want exactly one -eventlog JSONL file")
	}
	rl, err := eventlog.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	tls := eventlog.BuildTimelines(rl)
	eventlog.WriteTimeline(os.Stdout, rl, tls)
}

// runDiff compares two event logs and exits 1 when they diverge.
func runDiff(args []string) {
	fs := flag.NewFlagSet("analyze diff", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		log.Fatal("diff: want exactly two event-log files")
	}
	a, err := eventlog.ReadFile(fs.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	b, err := eventlog.ReadFile(fs.Arg(1))
	if err != nil {
		log.Fatal(err)
	}
	res := eventlog.Diff(a, b)
	eventlog.WriteDiff(os.Stdout, res, fs.Arg(0), fs.Arg(1))
	if !res.Comparable || !res.Identical {
		os.Exit(1)
	}
}

// runFigures is the original mode: Table I and Figures 2–6 (Section
// III dataset measurement) over the synthetic scenario.
func runFigures(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	scale := fs.String("scale", "mid", "scenario scale: "+core.ScaleNames)
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "all", "which output: table1, fig2..fig6, all")
	fs.Parse(args)
	if fs.NArg() > 0 {
		log.Fatalf("unknown command %q: want timeline, diff, or figure flags (-scale, -seed, -out)", fs.Arg(0))
	}

	cfg, err := core.ScenarioConfigForScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = *seed
	fmt.Fprintf(os.Stderr, "building %s scenario (seed %d)...\n", *scale, *seed)
	sc, err := core.BuildScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m := core.NewMeasurement(sc)
	want := func(name string) bool { return *out == "all" || *out == name }

	if want("table1") {
		tbl, err := m.Table1()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Table I: correlation between disaster-related factors and vehicle flow rate")
		fmt.Printf("  %-20s %-14s %-12s %-10s\n", "", "Precipitation", "Wind speed", "Altitude")
		fmt.Printf("  %-20s %14.3f %12.3f %10.3f\n", "Vehicle flow rate", tbl.Precip, tbl.Wind, tbl.Altitude)
		fmt.Printf("  (paper:             %14.3f %12.3f %10.3f)\n\n", -0.897, -0.781, 0.739)
	}
	if want("fig2") {
		f2 := m.Fig2()
		fmt.Println("Figure 2: hourly flow rate, R1 vs R2, before vs after the disaster")
		fmt.Printf("  %4s %10s %10s %10s %10s\n", "hour", "R1-before", "R1-after", "R2-before", "R2-after")
		for i, h := range f2.Hours {
			fmt.Printf("  %4d %10.2f %10.2f %10.2f %10.2f\n",
				h, f2.R1Before[i], f2.R1After[i], f2.R2Before[i], f2.R2After[i])
		}
		fmt.Println()
	}
	if want("fig3") {
		cdf := m.Fig3()
		fmt.Println("Figure 3: CDF of per-segment |before - after| flow-rate difference")
		for _, pt := range cdf.Points(12) {
			fmt.Printf("  diff >= %7.3f veh/h at P = %.2f\n", pt.X, pt.P)
		}
		fmt.Println()
	}
	if want("fig4") {
		f4 := m.Fig4()
		fmt.Println("Figure 4: region distribution of rescued people")
		total := 0
		for _, n := range f4 {
			total += n
		}
		for r := 1; r <= sc.City.NumRegions(); r++ {
			bar := ""
			if total > 0 {
				for i := 0; i < 40*f4[r]/total; i++ {
					bar += "#"
				}
			}
			fmt.Printf("  %-16s %4d %s\n", sc.City.Regions[r].Name, f4[r], bar)
		}
		fmt.Println()
	}
	if want("fig5") {
		f5 := m.Fig5()
		fmt.Println("Figure 5: region flow rate before/during/after the disaster")
		fmt.Printf("  %-16s %10s %10s %10s\n", "region", "before", "during", "after")
		for i, r := range f5.Regions {
			fmt.Printf("  %-16s %10.2f %10.2f %10.2f\n",
				sc.City.Regions[r].Name, f5.Before[i], f5.During[i], f5.After[i])
		}
		fmt.Println()
	}
	if want("fig6") {
		f6 := m.Fig6()
		fmt.Println("Figure 6: people delivered to hospitals per day")
		cfgEval := sc.Eval.Data.Config
		for d, n := range f6 {
			phase := cfgEval.PhaseOf(cfgEval.Start.AddDate(0, 0, d).Add(12 * 3600e9))
			fmt.Printf("  day %2d (%s): %4d\n", d, phase, n)
		}
		fmt.Println()
	}
}
