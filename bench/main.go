// Command mobibench is the repository's end-to-end benchmark: it builds
// a workload's world from a seed, drives the shipped dispatch pipeline
// window by window in a closed loop for a fixed time, checks that the
// runs obey the simulation's rules, and prints every metric as
// "name value unit" lines followed by one JSON result line.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload mr-mid|baselines-mid|metro-10k|train-small|all \
//	    [--seed 1] [--seconds 10] [--trace 0|1] [--out result.jsonl] [--smoke]
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) repeats the measured phase with the program's metrics
// registry wired in and reports the per-layer metrics instead. See
// bench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/ilp"
	"mobirescue/internal/obs"
)

// setups is how many times an untraced run builds the workload's world;
// setup_s is their median.
const setups = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceFlag is --trace. It takes a value (0 or 1) rather than being a
// boolean flag, so "--trace 0" parses as one flag, not as a flag and a
// stray argument.
type traceFlag bool

func (f *traceFlag) String() string { return strconv.FormatBool(bool(*f)) }

func (f *traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*f = traceFlag(v)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: mr-mid, baselines-mid, metro-10k, train-small, or all")
	seed := fs.Int64("seed", 1, "seeds the scenario and the system")
	seconds := fs.Float64("seconds", 10, "minimum length of the measured phase")
	var trace traceFlag
	fs.Var(&trace, "trace", "1 adds a traced phase and reports per-layer metrics")
	out := fs.String("out", "", "also append each result, with its header, as a JSON line to this file")
	smoke := fs.Bool("smoke", false, "small scale, 12-window days, 2-episode rounds, one set-up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "mobibench: %v\n", err)
			return 2
		}
		selected = []*workload{w}
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), smoke: *smoke}
	status := 0
	for _, w := range selected {
		rep, err := runWorkload(w, o, bool(trace))
		if err != nil {
			fmt.Fprintf(stderr, "mobibench: %s: %v\n", w.name, err)
			return 1
		}
		if err := rep.write(stdout, *out); err != nil {
			fmt.Fprintf(stderr, "mobibench: %v\n", err)
			return 1
		}
		if !rep.Correct {
			status = 1
		}
	}
	return status
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"window_p50_ms", "ms"},
	{"window_p90_ms", "ms"},
	{"windows_per_s", "1/s"},
	{"heap_mb", "MB"},
}

// header identifies the build, host and inputs of a result.
type header struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	ConfigHash string  `json:"config_hash"`
	Workload   string  `json:"workload"`
	Mode       string  `json:"mode"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke,omitempty"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is one workload's output: the header, the result, the metrics
// in print order, informational lines, and what failed its checks.
type report struct {
	header
	result
	order    []metricDef
	info     []string
	failures []string
}

func (r *report) set(def metricDef, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]value)
	}
	r.order = append(r.order, def)
	r.Metrics[def.name] = value{Value: v, Unit: def.unit}
}

// formatValue prints a measured value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// write prints the report: a header line, one "name value unit" line
// per metric, informational lines prefixed "#", and the JSON result as
// the last line. With out set, the header and result are appended to
// that file as one JSON line.
func (r *report) write(w io.Writer, out string) error {
	h, err := json.Marshal(r.header)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# header %s\n", h)
	for _, def := range r.order {
		fmt.Fprintf(w, "%s %s %s\n", def.name, formatValue(r.Metrics[def.name].Value), def.unit)
	}
	for _, line := range r.info {
		fmt.Fprintf(w, "# %s\n", line)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	res, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", res)
	if out == "" {
		return nil
	}
	line, err := json.Marshal(struct {
		Header header `json:"header"`
		result
	}{r.header, r.result})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runWorkload sets the workload up, measures it, and, when traced,
// measures it again with the registry wired in.
func runWorkload(w *workload, o options, traced bool) (*report, error) {
	cfg, err := w.scenarioConfig(o)
	if err != nil {
		return nil, err
	}
	rep := &report{header: header{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: o.seed, ConfigHash: core.ConfigHash(cfg), Workload: w.name,
		Mode: "untraced", Seconds: o.seconds.Seconds(), Smoke: o.smoke,
	}}
	n := setups
	if o.smoke || traced {
		n = 1
	}
	ph, err := untracedPhase(w, o, n, rep)
	if err != nil {
		return nil, err
	}
	if traced {
		// A traced run reports per-layer metrics; the untraced phase it
		// is compared with stays visible as informational lines.
		for _, def := range rep.order {
			rep.infof("untraced %s %s %s", def.name, formatValue(rep.Metrics[def.name].Value), def.unit)
		}
		rep.Mode, rep.order, rep.Metrics = "traced", nil, nil
		if err := tracedPhase(w, o, ph, rep); err != nil {
			return nil, err
		}
	}
	rep.Correct = len(rep.failures) == 0
	return rep, nil
}

// untracedPhase builds the workload n times, timing each set-up, and
// measures the last one with nothing but the benchmark's own timers.
func untracedPhase(w *workload, o options, n int, rep *report) (*phase, error) {
	var e *env
	var setupTimes []float64
	for i := 0; i < n; i++ {
		e.close()
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(w, o, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer e.close()
	ph, err := measureChecked(e, nil, rep)
	if err != nil {
		return nil, err
	}
	return ph, endToEndMetrics(rep, e, ph, setupTimes)
}

// measureChecked runs one measured phase, then the post-run checks, and
// records the attempted and failed counts.
func measureChecked(e *env, tr *tracer, rep *report) (*phase, error) {
	ph, err := measure(e, tr)
	if err != nil {
		return nil, err
	}
	if ph.lastLog.path != "" {
		if err := checkLog(ph.lastLog.path, ph.lastLog.res, ph.lastLog.windows); err != nil {
			ph.failures = append(ph.failures, "flight recorder: "+err.Error())
		}
	}
	rep.Attempted += len(ph.windows) + ph.episodes
	if len(ph.failures) > 0 {
		rep.Failed += len(ph.failures)
		rep.failures = append(rep.failures, ph.failures...)
	}
	return ph, nil
}

// endToEndMetrics fills the end-to-end metrics of an untraced phase and
// its informational lines.
func endToEndMetrics(rep *report, e *env, ph *phase, setupTimes []float64) error {
	p50w, _ := ph.passMedian(func(xs []float64) (float64, error) { return median(xs), nil })
	p90w, err := ph.passMedian(p90)
	if err != nil {
		return fmt.Errorf("window_p90_ms: %w", err)
	}
	appeared, timely := 0, 0
	for _, res := range ph.first.results {
		end := res.Config.Start.Add(res.Config.Duration)
		for _, o := range res.Requests {
			if o.AppearAt.Before(end) {
				appeared++
			}
		}
		timely += res.TotalTimelyServed()
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(e)
	vals := []float64{
		median(setupTimes),
		p50w,
		p90w,
		ph.windowsPerSecond(),
		float64(mem.HeapInuse) / 1e6,
	}
	for i, def := range endToEnd {
		rep.set(def, vals[i])
	}
	t := summarize(ph.windows)
	rep.infof("window_samples %d count", t.N)
	rep.infof("window_p%s_ms %s ms", formatValue(t.TailPct), formatValue(t.Tail))
	rep.infof("passes %d count", len(ph.passS))
	rep.infof("timely_served %d count", timely)
	rep.infof("appeared %d count", appeared)
	if appeared > 0 {
		rep.infof("missed_frac %s ratio", formatValue(float64(appeared-timely)/float64(appeared)))
	}
	if len(ph.first.rewards) > 0 {
		sum := 0.0
		for _, r := range ph.first.rewards {
			sum += r
		}
		rep.infof("train_reward_sum %s count", formatValue(sum))
	}
	return nil
}

// tracedPhase builds the workload again with a metrics registry wired
// through the stack, measures it with the tracer, checks that its
// outcomes equal the untraced phase's, and reports the per-layer
// metrics.
func tracedPhase(w *workload, o options, untraced *phase, rep *report) error {
	reg := obs.NewRegistry()
	// The assignment solvers' metrics hook is package-wide: detach it
	// when the traced phase ends so later phases run without it.
	defer ilp.EnableMetrics(nil)
	runtime.GC()
	e, err := setup(w, o, reg)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer e.close()
	tr := newTracer(reg)
	ph, err := measureChecked(e, tr, rep)
	if err != nil {
		return err
	}
	if diff := diffOutcomes(untraced.first, ph.first); diff != "" {
		rep.Failed++
		rep.failures = append(rep.failures, "traced run differs from untraced: "+diff)
	}
	svm := reg.Histogram(core.MetricSVMTrainingSeconds, "", obs.DefSecondsBuckets).Sum()
	return layerMetrics(rep, tr, e.buildTime.Seconds(), svm, ph, untraced)
}
