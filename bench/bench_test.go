package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mobirescue/internal/obs"
	"mobirescue/internal/sim"
)

// smallEnv builds a small-scale world with the given workload's parts.
func smallEnv(t *testing.T, w *workload, smoke bool) *env {
	t.Helper()
	small := *w
	small.scale = "small"
	e, err := setup(&small, options{seed: 1, smoke: smoke}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestRunsMatchRunMethod pins both ways the benchmark builds an
// evaluation run — the session entry point of untraced runs and the
// assembled, Decide-timed simulator of traced runs — to the batch
// pipeline's RunMethod, request by request.
func TestRunsMatchRunMethod(t *testing.T) {
	e := smallEnv(t, &workload{name: "test"}, false)
	day := e.sc.Eval.PeakRequestDay()
	for _, method := range []string{"mr", "rescue", "schedule"} {
		want, err := e.sys.RunMethod(method, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*tracer{nil, newTracer(obs.NewRegistry())} {
			j, err := e.evalJob(tr, method, day, false)
			if err != nil {
				t.Fatal(err)
			}
			ph := &phase{perMethod: make(map[string]int)}
			got, err := drive(j, tr, ph)
			if err != nil {
				t.Fatal(err)
			}
			if len(ph.failures) > 0 {
				t.Errorf("%s (traced=%v): %v", method, tr != nil, ph.failures)
			}
			if diff := diffOutcomes(passOutcome{results: []*sim.Result{want}}, passOutcome{results: []*sim.Result{got}}); diff != "" {
				t.Errorf("%s (traced=%v) differs from RunMethod: %s", method, tr != nil, diff)
			}
		}
	}
}

// TestChecksCatchViolations breaks one served request of a real
// flight-recorded run in each way the output checks look for.
func TestChecksCatchViolations(t *testing.T) {
	w, err := findWorkload("mr-mid")
	if err != nil {
		t.Fatal(err)
	}
	e := smallEnv(t, w, false)
	j, err := e.evalJob(nil, "mr", e.sc.Eval.PeakRequestDay(), true)
	if err != nil {
		t.Fatal(err)
	}
	ph := &phase{perMethod: make(map[string]int)}
	res, err := drive(j, nil, ph)
	if err != nil {
		t.Fatal(err)
	}
	windows := ph.perMethod[j.method]
	if len(ph.failures) > 0 {
		t.Fatal(ph.failures)
	}
	if err := checkLog(ph.lastLog.path, res, windows); err != nil {
		t.Fatal(err)
	}
	served := -1
	for i, o := range res.Requests {
		if o.Served() {
			served = i
			break
		}
	}
	if served < 0 {
		t.Fatal("no request served")
	}
	broken := func(mutate func(o *sim.RequestOutcome)) *sim.Result {
		bad := *res
		bad.Requests = append([]sim.RequestOutcome(nil), res.Requests...)
		mutate(&bad.Requests[served])
		return &bad
	}
	for _, tc := range []struct {
		name   string
		mutate func(o *sim.RequestOutcome)
	}{
		{"picked up before it appeared", func(o *sim.RequestOutcome) { o.PickedUpAt = o.AppearAt.Add(-time.Minute) }},
		{"served by no team", func(o *sim.RequestOutcome) { o.ServedBy = sim.VehicleID(j.teams) }},
		{"delivered before pickup", func(o *sim.RequestOutcome) { o.DeliveredAt = o.PickedUpAt.Add(-time.Second) }},
		{"unserved but assigned", func(o *sim.RequestOutcome) { o.PickedUpAt = time.Time{} }},
	} {
		if err := checkRun(j, broken(tc.mutate), windows); err == nil {
			t.Errorf("checkRun accepted a request %s", tc.name)
		}
	}
	late := broken(func(o *sim.RequestOutcome) { o.PickedUpAt = o.PickedUpAt.Add(10 * time.Second) })
	if err := checkLog(ph.lastLog.path, late, windows); err == nil {
		t.Error("checkLog accepted a pickup the outcome places elsewhere")
	}
	if err := checkLog(ph.lastLog.path, res, windows+1); err == nil {
		t.Error("checkLog accepted a window without a decide event")
	}
	if diffOutcomes(passOutcome{results: []*sim.Result{res}}, passOutcome{results: []*sim.Result{late}}) == "" {
		t.Error("diffOutcomes missed a changed pickup")
	}
}

// TestMetroSmoke checks the streamed-population composition yields runs
// that pass every output check, identically on every pass.
func TestMetroSmoke(t *testing.T) {
	w, err := findWorkload("metro-10k")
	if err != nil {
		t.Fatal(err)
	}
	e := smallEnv(t, w, true)
	if n := e.prov.NumPeople(); n != smokePeople {
		t.Fatalf("streamed %d people, want %d", n, smokePeople)
	}
	ph, err := measure(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.failures) > 0 {
		t.Fatal(ph.failures)
	}
	if len(ph.passS) < 2 || len(ph.windows) < minMethodWindows {
		t.Fatalf("%d passes, %d windows", len(ph.passS), len(ph.windows))
	}
}

// benchmarkDefs reads the metric names and units BENCHMARK.json
// declares for one section.
func benchmarkDefs(t *testing.T, section string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var defs []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[section], &defs); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, d := range defs {
		out[d.Name] = d.Unit
	}
	return out
}

// runSmoke runs the command with -smoke and returns its output lines.
func runSmoke(t *testing.T, args ...string) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"--smoke", "--seconds", "0"}, args...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v exited %d: %s\n%s", args, code, stderr.String(), stdout.String())
	}
	var lines []string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines
}

// resultMetrics decodes a result line into metric name -> unit.
func resultMetrics(t *testing.T, line string) map[string]string {
	t.Helper()
	var res result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	out := make(map[string]string)
	for name, v := range res.Metrics {
		out[name] = v.Unit
	}
	return out
}

func sameDefs(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	var diff []string
	for name, unit := range want {
		if got[name] != unit {
			diff = append(diff, "want "+name+" "+unit+", got "+got[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			diff = append(diff, "unexpected "+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Errorf("%s: %s", what, strings.Join(diff, "; "))
	}
}

// TestSmokePrintsEveryMetric runs every workload at smoke size, traced,
// and checks the output against BENCHMARK.json: the untraced phase
// prints every end-to-end metric as "name value unit", and the result
// line carries exactly the per-layer metrics. An untraced run's result
// line carries exactly the end-to-end metrics.
func TestSmokePrintsEveryMetric(t *testing.T) {
	e2e := benchmarkDefs(t, "end_to_end")
	layers := benchmarkDefs(t, "per_layer")
	lines := runSmoke(t, "--workload", "all", "--trace", "1")
	var results []string
	printed := make(map[string]string)
	for _, l := range lines {
		if strings.HasPrefix(l, "{") {
			results = append(results, l)
			sameDefs(t, "traced result", resultMetrics(t, l), layers)
			sameDefs(t, "untraced lines", printed, e2e)
			printed = make(map[string]string)
		}
		if f := strings.Fields(l); len(f) == 5 && f[0] == "#" && f[1] == "untraced" {
			printed[f[2]] = f[4]
		}
	}
	if len(results) != len(workloads) {
		t.Fatalf("%d result lines for %d workloads", len(results), len(workloads))
	}
	lines = runSmoke(t, "--workload", "train-small", "--trace", "0")
	sameDefs(t, "untraced result", resultMetrics(t, lines[len(lines)-1]), e2e)
}
