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
	MetricAuctionSolves    = "mobirescue_ilp_auction_solves_total"
	MetricAuctionSeconds   = "mobirescue_ilp_auction_seconds"
	MetricAuctionSize      = "mobirescue_ilp_auction_matrix_size"
	MetricAuctionBids      = "mobirescue_ilp_auction_bids_total"
)

// ilpMetrics bundles the solver telemetry handles.
type ilpMetrics struct {
	hungSolves  *obs.Counter
	hungSeconds *obs.Histogram
	hungSize    *obs.Histogram
	aucSolves   *obs.Counter
	aucSeconds  *obs.Histogram
	aucSize     *obs.Histogram
	aucBids     *obs.Counter
}

// metricsPtr holds the active telemetry set. Hungarian and the auction
// are pure functions called from several dispatchers, so the hook is
// package-level; a nil pointer (the default) keeps the solvers untouched
// apart from one atomic load.
var metricsPtr atomic.Pointer[ilpMetrics]

// EnableMetrics registers solver telemetry (solve counts, solve-time
// and matrix-size histograms, auction bids) with reg. Nil reg
// disables telemetry again.
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
		aucSolves:   reg.Counter(MetricAuctionSolves, "Auction assignment solves."),
		aucSeconds:  reg.Histogram(MetricAuctionSeconds, "Wall-clock auction solve time.", obs.DefSecondsBuckets),
		aucSize:     reg.Histogram(MetricAuctionSize, "Auction matrix dimension max(rows, cols).", sizeBuckets),
		aucBids:     reg.Counter(MetricAuctionBids, "Auction bidding iterations."),
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

// observeAuction records one auction solve (no-op when disabled).
func observeAuction(start time.Time, size, bids int) {
	m := metricsPtr.Load()
	if m == nil {
		return
	}
	m.aucSolves.Inc()
	m.aucSeconds.ObserveSince(start)
	m.aucSize.Observe(float64(size))
	m.aucBids.Add(int64(bids))
}
