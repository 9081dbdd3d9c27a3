package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"mobirescue/internal/mobility"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/pop"
	"mobirescue/internal/roadnet"
)

// TestRegionTotalsMatchesPredictAggregation pins the provider-side half
// of the demand fast path: RegionTotals must be bit-identical to
// aggregating the Predict map under dispatch's regionDemand filters
// (drop non-positive counts, out-of-range segments, and segments whose
// region falls outside 1..NumRegions), in any summation order — the
// counts are small integers, so float64 addition is exact. Real windows
// predict demand in only a few regions, so a last window serves a
// synthetic distribution with demand on every segment, plus entries the
// filters must drop.
func TestRegionTotalsMatchesPredictAggregation(t *testing.T) {
	sys := testSystem(t)
	p := sys.EvalProvider

	for _, at := range predictWindows(sys) {
		checkRegionTotals(t, sys, at, p.RegionTotals(at), p.Predict(at))
	}

	sc := sys.Scenario
	fresh, err := NewPredictProvider(sc.City, sc.Eval, sys.SVM, sc.Elev)
	if err != nil {
		t.Fatal(err)
	}
	n := sc.City.Graph.NumSegments()
	synth := map[roadnet.SegmentID]float64{-1: 4, roadnet.SegmentID(n): 3}
	for seg := 0; seg < n; seg++ {
		synth[roadnet.SegmentID(seg)] = float64(seg%4 - 1) // -1, 0, 1, 2
	}
	ready := make(chan struct{})
	close(ready)
	at := sc.Eval.Data.Config.DisasterStart
	fresh.cache[at.Unix()] = &predictEntry{ready: ready, val: synth}
	checkRegionTotals(t, sys, at, fresh.RegionTotals(at), synth)
}

// checkRegionTotals fails t unless totals — RegionTotals at window at —
// equal pred aggregated per region under dispatch's regionDemand
// filters, summed in segment order.
func checkRegionTotals(t *testing.T, sys *System, at time.Time, totals []float64, pred map[roadnet.SegmentID]float64) {
	t.Helper()
	g := sys.Scenario.City.Graph
	numRegions := sys.Scenario.City.NumRegions()
	if len(totals) != numRegions+1 {
		t.Fatalf("window %v: totals length %d, want %d", at, len(totals), numRegions+1)
	}
	keys := make([]roadnet.SegmentID, 0, len(pred))
	for seg := range pred {
		keys = append(keys, seg)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	want := make([]float64, numRegions+1)
	for _, seg := range keys {
		n := pred[seg]
		if n <= 0 || int(seg) < 0 || int(seg) >= g.NumSegments() {
			continue
		}
		if r := g.Segment(seg).Region; r >= 1 && r <= numRegions {
			want[r] += n
		}
	}
	for r := range want {
		if totals[r] != want[r] {
			t.Fatalf("window %v region %d: RegionTotals %v != map aggregation %v", at, r, totals[r], want[r])
		}
	}
}

// TestPredictProviderFromSourceSparseIDs exercises the source-backed
// constructor with non-dense person IDs: the store falls back to
// binary-search lookup, and the window fast path must still match the
// reference implementation.
func TestPredictProviderFromSourceSparseIDs(t *testing.T) {
	sys := testSystem(t)
	sc := sys.Scenario
	g := sc.City.Graph
	cfg := sc.Eval.Data.Config

	b := pop.NewBuilder()
	ids := []int{5, 40, 1007}
	for k, id := range ids {
		for s := 0; s < 6; s++ {
			seg := roadnet.SegmentID((k*7 + s*13) % g.NumSegments())
			b.Add(id, cfg.Start.Add(time.Duration(s)*4*time.Hour), g.SegmentMidpoint(seg))
		}
	}
	store, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	horizon := time.Duration(cfg.Days)*24*time.Hour + factorLookback
	p, err := NewPredictProviderFromSource(sc.City, store, sys.SVM, sc.Eval.Storm, sc.Elev, horizon)
	if err != nil {
		t.Fatalf("NewPredictProviderFromSource: %v", err)
	}
	at := cfg.DisasterStart.Add(12 * time.Hour)
	if got, want := p.Predict(at), p.PredictReference(at); !reflect.DeepEqual(got, want) {
		t.Fatal("sparse-ID provider: fast path differs from reference")
	}
	for _, id := range ids {
		if _, _, ok := p.PredictPerson(id, at); !ok {
			t.Fatalf("PredictPerson(%d) not found", id)
		}
	}
	if _, _, ok := p.PredictPerson(6, at); ok {
		t.Fatal("PredictPerson(6) found a person between sparse IDs")
	}
	if p.NumPeople() != len(ids) {
		t.Fatalf("NumPeople = %d, want %d", p.NumPeople(), len(ids))
	}
}

// streamerProvider builds a prediction provider over a streamed
// synthetic population of the given size on the test scenario's city,
// the metro-scale source.
func streamerProvider(tb testing.TB, sys *System, people int) *PredictProvider {
	tb.Helper()
	sc := sys.Scenario
	mcfg := sc.Eval.Data.Config
	mcfg.NumPeople = people
	st, err := mobility.NewStreamer(sc.City, mcfg)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewPredictProviderFromSource(sc.City, st, sys.SVM, sc.Eval.Storm, sc.Elev, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestPredictProviderOverStreamer runs the provider over streamed
// populations of 400, 10,000 and 100,000 people. At every tier and
// window the sharded fast path must match the serial path, and
// RegionTotals must match the aggregated map. The 400-person tier is
// also checked against the reference loop, which takes seconds per
// window at 100K.
// From 10K to 100K people the live heap must grow less than the
// population does: the city, the spatial index and the per-segment
// outputs are shared, and only O(people) columns grow.
func TestPredictProviderOverStreamer(t *testing.T) {
	sys := testSystem(t)
	heap := make(map[int]uint64)
	for _, people := range []int{400, 10_000, 100_000} {
		t.Run(fmt.Sprintf("people=%d", people), func(t *testing.T) {
			if people > 400 && testing.Short() {
				t.Skip("skipping metro-scale tier in -short mode")
			}
			p := streamerProvider(t, sys, people)
			for _, at := range predictWindows(sys) {
				p.SetWorkers(1)
				p.ResetCache()
				serial := p.Predict(at)
				p.SetWorkers(8)
				p.ResetCache()
				if parallel := p.Predict(at); !reflect.DeepEqual(serial, parallel) {
					t.Fatalf("window %v: streamer-backed prediction differs across workers", at)
				}
				checkRegionTotals(t, sys, at, p.RegionTotals(at), serial)
				if people > 400 {
					continue
				}
				if want := p.PredictReference(at); !reflect.DeepEqual(serial, want) {
					t.Fatalf("window %v: streamer-backed fast path differs from reference", at)
				}
			}
			runtime.GC()
			heap[people] = obs.ReadMem().HeapInuseBytes
			runtime.KeepAlive(p)
		})
	}
	if h10k, h100k := heap[10_000], heap[100_000]; h10k > 0 && h100k > 0 {
		ratio := float64(h100k) / float64(h10k)
		t.Logf("live heap %.1f -> %.1f MB (%.2fx) from 10K to 100K people", float64(h10k)/1e6, float64(h100k)/1e6, ratio)
		if ratio >= 10 {
			t.Fatalf("live heap grew %.2fx from 10K to 100K people, want less than the 10x population growth", ratio)
		}
	}
}

// BenchmarkPredictStreamer times prediction windows (Predict plus
// RegionTotals) over streamed populations of 10K, 100K and 1M people,
// in two modes per tier that share one provider. cold resets the cache
// before every window, so everyone is evaluated exactly; next predicts
// successive 5-minute windows with no reset, so stationary people reuse
// their certified margins, as in a run. Run it with -cpu 1,2 to time the
// serial and the sharded loop:
//
//	go test -run '^$' -bench PredictStreamer -cpu 1,2 ./internal/core
func BenchmarkPredictStreamer(b *testing.B) {
	sys := testSystem(b)
	at := sys.Scenario.Eval.Data.Config.DisasterStart.Add(36 * time.Hour)
	windows := [2]time.Time{at, at.Add(5 * time.Minute)}
	for _, tier := range []struct {
		name   string
		people int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1m", 1_000_000}} {
		b.Run(tier.name, func(b *testing.B) {
			p := streamerProvider(b, sys, tier.people)
			p.Predict(windows[1]) // fill the per-person memos
			b.Run("cold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					w := windows[i%2]
					p.ResetCache()
					p.Predict(w)
					p.RegionTotals(w)
				}
			})
			b.Run("next", func(b *testing.B) {
				p.ResetCache()
				p.Predict(at)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 1; i <= b.N; i++ {
					// Successive windows through the day after at, so
					// every window lies inside the storm; on wrapping
					// back to at, drop the cached windows (not the
					// margins) and take one near-cold window.
					k := i % 288
					if k == 0 {
						p.dropWindows()
					}
					w := at.Add(time.Duration(k) * 5 * time.Minute)
					p.Predict(w)
					p.RegionTotals(w)
				}
			})
		})
	}
}

// TestDemandFastPathRunByteIdentical is the end-to-end witness for the
// demand fast path: a full evaluation-day MR run with the region-sharded
// demand source installed (the default wiring) must produce a
// byte-identical result and event stream to the same run with the
// source removed (falling back to the per-decision map scan).
func TestDemandFastPathRunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full eval-day comparison in -short mode")
	}
	sc := testScenario(t)

	run := func(fast bool) (*resultAndLog, error) {
		cfg := DefaultSystemConfig()
		cfg.Workers = 4
		sys, err := NewSystem(sc, cfg)
		if err != nil {
			return nil, err
		}
		if !fast {
			sys.MR.SetDemandSource(nil)
		}
		var buf bytes.Buffer
		l, err := eventlog.New(&buf, sys.BuildManifest("small", sc.Config), eventlog.Options{})
		if err != nil {
			return nil, err
		}
		sys.SetEventLog(l)
		res, err := sys.RunMethod("mr", 0)
		if err != nil {
			return nil, err
		}
		if err := l.Close(); err != nil {
			return nil, err
		}
		return &resultAndLog{res: res, log: buf.Bytes()}, nil
	}

	fast, err := run(true)
	if err != nil {
		t.Fatalf("fast-path run: %v", err)
	}
	slow, err := run(false)
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	if !reflect.DeepEqual(fast.res, slow.res) {
		t.Error("results differ between demand fast path and map-scan fallback")
	}
	postHeader := func(raw []byte) []byte {
		return raw[bytes.IndexByte(raw, '\n')+1:]
	}
	if !bytes.Equal(postHeader(fast.log), postHeader(slow.log)) {
		t.Error("event stream differs between demand fast path and map-scan fallback")
	}
}

type resultAndLog struct {
	res any
	log []byte
}
