package ilp

import (
	"sync/atomic"
	"time"

	"mobirescue/internal/obs"
)

// Exported ILP metric names (see README "Observability").
const (
	MetricHungarianSolves  = "mobirescue_ilp_hungarian_solves_total"
	MetricHungarianSeconds = "mobirescue_ilp_hungarian_seconds"
	MetricHungarianSize    = "mobirescue_ilp_hungarian_matrix_size"
	// MetricAuctionSeconds and MetricAuctionSize are observed by no
	// solver, so they read 0 on every run. The names stay because the
	// end-to-end benchmark's layer trace (bench/trace.go) registers and
	// reads them next to the Hungarian pair.
	MetricAuctionSeconds = "mobirescue_ilp_auction_seconds"
	MetricAuctionSize    = "mobirescue_ilp_auction_matrix_size"
)

// ilpMetrics bundles the solver telemetry handles.
type ilpMetrics struct {
	hungSolves  *obs.Counter
	hungSeconds *obs.Histogram
	hungSize    *obs.Histogram
}

// metricsPtr holds the active telemetry set. Hungarian is a pure
// function called from several dispatchers, so the hook is
// package-level; a nil pointer (the default) keeps the solver untouched
// apart from one atomic load.
var metricsPtr atomic.Pointer[ilpMetrics]

// EnableMetrics registers solver telemetry (solve count, solve-time and
// matrix-size histograms) with reg. Nil reg disables telemetry again.
func EnableMetrics(reg *obs.Registry) {
	if reg == nil {
		metricsPtr.Store(nil)
		return
	}
	sizeBuckets := []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}
	metricsPtr.Store(&ilpMetrics{
		hungSolves:  reg.Counter(MetricHungarianSolves, "Hungarian assignment solves."),
		hungSeconds: reg.Histogram(MetricHungarianSeconds, "Wall-clock Hungarian solve time.", obs.DefSecondsBuckets),
		hungSize:    reg.Histogram(MetricHungarianSize, "Hungarian matrix dimension max(rows, cols).", sizeBuckets),
	})
}

// observeHungarian records one Hungarian solve (no-op when disabled).
func observeHungarian(start time.Time, size int) {
	m := metricsPtr.Load()
	if m == nil {
		return
	}
	m.hungSolves.Inc()
	m.hungSeconds.ObserveSince(start)
	m.hungSize.Observe(float64(size))
}
