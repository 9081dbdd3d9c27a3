package main

import (
	"fmt"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/ilp"
	"mobirescue/internal/obs"
	"mobirescue/internal/rl"
	"mobirescue/internal/roadnet"
	"mobirescue/internal/sim"
	"mobirescue/internal/train"
)

// The per-layer numbers of a traced run are taken from outside the
// program: at every window boundary and around every Decide the tracer
// reads the cumulative counters and histograms the program already
// keeps in its obs.Registry, and the benchmark times the calls it makes.
// Routing is serial inside a session (one worker), so every layer time
// read inside a window was spent on the window's own goroutine.

// Indices of the cumulative values one reading holds.
const (
	pPredictS    = iota // prediction window seconds (sum)
	pPredictN           // prediction windows computed
	pPredHits           // prediction cache hits
	pPredMisses         // prediction cache misses
	pPersons            // per-person SVM decisions
	pILPS               // assignment solve seconds (sum)
	pILPN               // assignment solves
	pILPDim             // assignment matrix dimensions (sum)
	pDijkstraS          // Dijkstra seconds (sum)
	pDijkstraN          // Dijkstra runs
	pTreeHits           // route-tree cache hits
	pTreeMisses         // route-tree cache misses
	pReroutes           // mid-run route repairs
	pLearnerS           // learner trajectory-apply seconds (sum)
	pRolloutS           // actor episode seconds (sum)
	pTransitions        // transitions absorbed by the learner
	pLearnSteps         // gradient steps
	nProbes
)

// reading is one sample of every probe.
type reading [nProbes]float64

func (r reading) sub(o reading) reading {
	for i := range r {
		r[i] -= o[i]
	}
	return r
}

func (r reading) add(o reading) reading {
	for i := range r {
		r[i] += o[i]
	}
	return r
}

// windowSample is one traced dispatch window.
type windowSample struct {
	method    string
	windowMS  float64 // the whole Advance (plus event-log write)
	decideMS  float64 // the dispatcher's Decide, timed by the benchmark
	logMS     float64 // the event-log write
	modeledMS float64 // the computation delay the dispatcher reported
	orders    int
	inDecide  reading // probe deltas inside Decide
	all       reading // probe deltas over the whole window
}

// roundSample is one traced training round.
type roundSample struct {
	wallS float64
	delta reading
}

// tracer accumulates the per-layer breakdown of a traced run.
type tracer struct {
	probes [nProbes][]func() float64
	before reading
	cur    windowSample

	windows   []windowSample
	rounds    []roundSample
	logEvents int64
	logBytes  int64
}

// newTracer resolves the probes in reg. Call it after the traced system
// is built, so metrics the program registers with non-default buckets
// already exist.
func newTracer(reg *obs.Registry) *tracer {
	t := &tracer{}
	sum := func(h *obs.Histogram) func() float64 { return h.Sum }
	count := func(h *obs.Histogram) func() float64 { return func() float64 { return float64(h.Count()) } }
	counter := func(c *obs.Counter) func() float64 { return func() float64 { return float64(c.Value()) } }
	hist := func(name string) *obs.Histogram { return reg.Histogram(name, "", obs.DefSecondsBuckets) }
	ctr := func(name string, labels ...obs.Label) *obs.Counter { return reg.Counter(name, "", labels...) }
	add := func(i int, fs ...func() float64) { t.probes[i] = append(t.probes[i], fs...) }

	predict := hist(core.MetricPredictSeconds)
	add(pPredictS, sum(predict))
	add(pPredictN, count(predict))
	add(pPredHits, counter(ctr(core.MetricPredictCacheHits)))
	add(pPredMisses, counter(ctr(core.MetricPredictCacheMiss)))
	add(pPersons, counter(ctr(core.MetricPredictPersons)))
	for _, kind := range [][2]string{
		{ilp.MetricHungarianSeconds, ilp.MetricHungarianSize},
		{ilp.MetricAuctionSeconds, ilp.MetricAuctionSize},
	} {
		secs, size := hist(kind[0]), hist(kind[1])
		add(pILPS, sum(secs))
		add(pILPN, count(secs))
		add(pILPDim, sum(size))
	}
	dijkstra := hist(roadnet.MetricDijkstraSeconds)
	add(pDijkstraS, sum(dijkstra))
	add(pDijkstraN, count(dijkstra))
	add(pTreeHits, counter(ctr(roadnet.MetricTreeCacheHits)))
	add(pTreeMisses, counter(ctr(roadnet.MetricTreeCacheMisses)))
	for _, m := range methodNames {
		add(pReroutes, counter(ctr(sim.MetricReroutes, obs.L("method", m))))
	}
	add(pLearnerS, sum(hist(train.MetricLearnerSeconds)))
	add(pRolloutS, sum(hist(train.MetricActorSeconds)))
	add(pTransitions, counter(ctr(train.MetricTransitions)))
	add(pLearnSteps, counter(ctr(rl.MetricLearnSteps)))
	return t
}

func (t *tracer) read() reading {
	var r reading
	for i, fs := range t.probes {
		for _, f := range fs {
			r[i] += f()
		}
	}
	return r
}

func (t *tracer) windowStart() {
	t.cur = windowSample{}
	t.before = t.read()
}

func (t *tracer) windowEnd(method string, d, logTime time.Duration) {
	t.cur.method = method
	t.cur.windowMS = ms(d)
	t.cur.logMS = ms(logTime)
	t.cur.all = t.read().sub(t.before)
	t.windows = append(t.windows, t.cur)
}

func (t *tracer) round(wall time.Duration, delta reading) {
	t.rounds = append(t.rounds, roundSample{wallS: wall.Seconds(), delta: delta})
}

func (t *tracer) logged(events, bytes int64) {
	t.logEvents += events
	t.logBytes += bytes
}

// tracedDispatcher times each Decide and reads the probes around it.
type tracedDispatcher struct {
	sim.Dispatcher
	t *tracer
}

func (d tracedDispatcher) Decide(snap *sim.Snapshot) ([]sim.Order, time.Duration) {
	before := d.t.read()
	start := time.Now()
	orders, delay := d.Dispatcher.Decide(snap)
	d.t.cur.decideMS += ms(time.Since(start))
	d.t.cur.inDecide = d.t.cur.inDecide.add(d.t.read().sub(before))
	d.t.cur.orders += len(orders)
	d.t.cur.modeledMS = ms(delay)
	return orders, delay
}

// breakdown is one window's wall time split across layers, in ms.
type breakdown struct {
	predict, ilp, dijkstraDecide, decideOther, step, dijkstraStep float64
}

// split attributes a window's wall time: Decide is prediction plus
// assignment plus in-Decide routing plus the rest of the dispatcher
// (policy forward, target ranking, coverage); the window's remainder is
// the simulator step, which includes its own routing and the event-log
// write. The parts sum to the window by construction; a negative part
// means a layer time was read outside the window's goroutine.
func (w windowSample) split() (breakdown, error) {
	b := breakdown{
		predict:        1000 * w.inDecide[pPredictS],
		ilp:            1000 * w.inDecide[pILPS],
		dijkstraDecide: 1000 * w.inDecide[pDijkstraS],
		step:           w.windowMS - w.decideMS,
		dijkstraStep:   1000 * (w.all[pDijkstraS] - w.inDecide[pDijkstraS]),
	}
	b.decideOther = w.decideMS - b.predict - b.ilp - b.dijkstraDecide
	const slackMS = 0.01 // clock granularity between nested timers
	if b.decideOther < -slackMS || b.step < -slackMS || b.dijkstraStep > b.step+slackMS {
		return b, fmt.Errorf("%s window does not split: %+v of %.3f ms", w.method, b, w.windowMS)
	}
	return b, nil
}

// perMethod lists the dispatchers the per-method metrics cover, in
// print order.
var perMethod = []string{"MobiRescue", "Rescue", "Schedule"}

// layerMetrics fills a traced report's per-layer metrics from the
// tracer's samples. Every metric is reported on every workload; a
// layer the workload does not run reads 0.
func layerMetrics(rep *report, t *tracer, buildS, svmS float64, ph, untraced *phase) error {
	var sum breakdown
	var orders float64
	var total, predicted reading
	var predictMS []float64
	decide := make(map[string][]float64)
	modeled := make(map[string][]float64)
	var logMS float64
	for _, w := range t.windows {
		b, err := w.split()
		if err != nil {
			return err
		}
		sum.predict += b.predict
		sum.ilp += b.ilp
		sum.dijkstraDecide += b.dijkstraDecide
		sum.decideOther += b.decideOther
		sum.step += b.step
		sum.dijkstraStep += b.dijkstraStep
		logMS += w.logMS
		orders += float64(w.orders)
		total = total.add(w.all)
		if w.inDecide[pPredictN] > 0 {
			predictMS = append(predictMS, 1000*w.inDecide[pPredictS])
			predicted = predicted.add(w.inDecide)
		}
		decide[w.method] = append(decide[w.method], w.decideMS)
		modeled[w.method] = append(modeled[w.method], w.modeledMS)
	}
	perWindow := func(x float64) float64 { return ratio(x, float64(len(t.windows))) }
	predictP90, err := p90OrZero(predictMS)
	if err != nil {
		return fmt.Errorf("core.predict_p90_ms: %w", err)
	}
	set := func(name, unit string, v float64) { rep.set(metricDef{name, unit}, v) }
	set("core.scenario_build_s", "s", buildS)
	set("svm.train_s", "s", svmS)
	set("core.predict_ms", "ms", median(predictMS))
	set("core.predict_p90_ms", "ms", predictP90)
	set("core.predict_persons", "count", ratio(predicted[pPersons], float64(len(predictMS))))
	set("core.predict_hit_ratio", "ratio", ratio(total[pPredHits], total[pPredHits]+total[pPredMisses]))
	for _, m := range perMethod {
		set("dispatch.decide_ms."+m, "ms", median(decide[m]))
	}
	for _, m := range perMethod {
		v, err := p90OrZero(decide[m])
		if err != nil {
			return fmt.Errorf("dispatch.decide_p90_ms.%s: %w", m, err)
		}
		set("dispatch.decide_p90_ms."+m, "ms", v)
	}
	for _, m := range perMethod {
		set("dispatch.modeled_delay_ms."+m, "ms", median(modeled[m]))
	}
	set("dispatch.decide_other_ms", "ms", perWindow(sum.decideOther))
	set("dispatch.orders_per_window", "count", perWindow(orders))
	set("ilp.solve_ms", "ms", perWindow(sum.ilp))
	set("ilp.solves", "count", perWindow(total[pILPN]))
	set("ilp.matrix_dim_mean", "count", ratio(total[pILPDim], total[pILPN]))
	set("roadnet.dijkstra_ms.in_decide", "ms", perWindow(sum.dijkstraDecide))
	set("roadnet.dijkstra_ms.in_step", "ms", perWindow(sum.dijkstraStep))
	set("roadnet.dijkstra_count", "count", perWindow(total[pDijkstraN]))
	set("roadnet.tree_hit_ratio", "ratio", ratio(total[pTreeHits], total[pTreeHits]+total[pTreeMisses]))
	set("sim.window_ms", "ms", perWindow(sum.predict+sum.ilp+sum.dijkstraDecide+sum.decideOther+sum.step))
	set("sim.step_ms", "ms", perWindow(sum.step))
	set("sim.reroutes", "count", ratio(total[pReroutes], float64(len(ph.passS))))
	set("eventlog.write_ms", "ms", perWindow(logMS))
	set("eventlog.bytes", "bytes", ratio(float64(t.logBytes), float64(len(ph.passS))))
	set("eventlog.events", "count", ratio(float64(t.logEvents), float64(len(ph.passS))))

	var rounds reading
	var wallS float64
	for _, r := range t.rounds {
		rounds = rounds.add(r.delta)
		wallS += r.wallS
	}
	nr := float64(len(t.rounds))
	set("train.learner_s", "s", ratio(rounds[pLearnerS], nr))
	set("train.rollout_s", "s", ratio(rounds[pRolloutS], nr))
	set("train.learner_idle_s", "s", ratio(wallS-rounds[pLearnerS], nr))
	set("rl.learn_steps", "count", ratio(rounds[pLearnSteps], nr))
	set("rl.learn_step_ms", "ms", ratio(1000*rounds[pLearnerS], rounds[pLearnSteps]))
	set("train.transitions", "count", ratio(rounds[pTransitions], nr))

	set("trace.overhead_frac", "ratio", median(ph.passS)/median(untraced.passS)-1)

	rep.infof("window breakdown, mean ms: predict %.3f + ilp %.3f + dijkstra %.3f + decide other %.3f + step %.3f (dijkstra %.3f, event log %.3f) = window %.3f",
		perWindow(sum.predict), perWindow(sum.ilp), perWindow(sum.dijkstraDecide), perWindow(sum.decideOther),
		perWindow(sum.step), perWindow(sum.dijkstraStep), perWindow(logMS), perWindow(sum.predict+sum.ilp+sum.dijkstraDecide+sum.decideOther+sum.step))
	return nil
}

// p90OrZero is p90 for a layer that may not run on the workload: no
// samples read 0, too few is an error.
func p90OrZero(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, nil
	}
	return p90(xs)
}

// ratio is a/b, or 0 when b is 0 (the layer did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
