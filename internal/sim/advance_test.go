package sim

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/roadnet"
)

// spreadRequests builds n requests spread over the first `span` of the
// run on a deterministic walk of the city's segments.
func spreadRequests(city *roadnet.City, n int, start time.Time, span time.Duration) []Request {
	reqs := make([]Request, 0, n)
	nseg := city.Graph.NumSegments()
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{
			ID:       RequestID(i + 1),
			Seg:      roadnet.SegmentID((i * 7) % nseg),
			AppearAt: start.Add(time.Duration(i) * span / time.Duration(n)),
		})
	}
	return reqs
}

// recordedSim builds a simulator whose events land in buf via one
// recorder per run.
func recordedSim(t *testing.T, city *roadnet.City, reqs []Request, buf *bytes.Buffer) (*Simulator, *eventlog.Log, *eventlog.Recorder) {
	t.Helper()
	lg, err := eventlog.New(buf, eventlog.Manifest{Scale: "sim-test"}, eventlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortConfig()
	rec := lg.Recorder("run-0")
	cfg.Events = rec
	starts := []roadnet.Position{
		vehicleAtLandmark(t, city, city.Hospitals[0]),
		vehicleAtLandmark(t, city, city.Depot),
	}
	s, err := New(city, StaticCost{}, greedyDisp{}, reqs, starts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, lg, rec
}

// TestAdvanceMatchesRun pins the serving path's core contract: a run
// advanced one window at a time produces the same result and the same
// event-log bytes as one uninterrupted Run.
func TestAdvanceMatchesRun(t *testing.T) {
	city := testCity(t)
	reqs := spreadRequests(city, 12, simStart, 2*time.Hour)

	var bufA, bufB bytes.Buffer
	simA, logA, recA := recordedSim(t, city, reqs, &bufA)
	simB, logB, recB := recordedSim(t, city, reqs, &bufB)

	resA, err := simA.Run()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	steps := 0
	for {
		done, err := simB.Advance(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p := simB.Progress(); p.Finished != done {
			t.Fatalf("Progress.Finished=%v, Advance done=%v", p.Finished, done)
		}
		if done {
			break
		}
		if simB.Result() != nil {
			t.Fatal("Result non-nil before the run finished")
		}
		steps++
		if steps > 10000 {
			t.Fatal("Advance(1) never finished")
		}
	}
	resB := simB.Result()
	if resB == nil {
		t.Fatal("Result nil after Advance reported done")
	}
	wantWindows := int(shortConfig().Duration / shortConfig().Period)
	if steps != wantWindows-1 {
		// One window per Advance(1) call except the last, which also
		// drains the tail past the final boundary.
		t.Errorf("took %d single-window advances, want %d", steps, wantWindows-1)
	}

	if !reflect.DeepEqual(resA.Requests, resB.Requests) {
		t.Error("request outcomes differ between Run and windowed Advance")
	}
	if !reflect.DeepEqual(resA.Rounds, resB.Rounds) {
		t.Error("round stats differ between Run and windowed Advance")
	}
	if !reflect.DeepEqual(resA.ComputeDelays, resB.ComputeDelays) {
		t.Error("compute delays differ between Run and windowed Advance")
	}
	if resA.Resilience != resB.Resilience {
		t.Error("resilience stats differ between Run and windowed Advance")
	}

	logA.Append(recA)
	logB.Append(recB)
	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := logB.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("event logs differ between Run and windowed Advance")
	}

	// Advancing a finished run is a cheap no-op, not an error.
	if done, err := simB.Advance(ctx, 1); err != nil || !done {
		t.Errorf("Advance after finish: done=%v err=%v, want true, nil", done, err)
	}
}

// TestInjectRequestsMatchesUpfront pins streaming ingestion: requests
// injected mid-run are dispatched and served exactly as if the
// simulator had been constructed with them.
func TestInjectRequestsMatchesUpfront(t *testing.T) {
	city := testCity(t)
	base := spreadRequests(city, 8, simStart, time.Hour)
	extra := make([]Request, 0, 4)
	nseg := city.Graph.NumSegments()
	for i := 0; i < 4; i++ {
		extra = append(extra, Request{
			ID:       RequestID(100 + i),
			Seg:      roadnet.SegmentID((i*5 + 3) % nseg),
			AppearAt: simStart.Add(90*time.Minute + time.Duration(i)*5*time.Minute),
		})
	}

	var bufA, bufB bytes.Buffer
	simA, _, _ := recordedSim(t, city, append(append([]Request{}, base...), extra...), &bufA)
	simB, _, _ := recordedSim(t, city, base, &bufB)

	resA, err := simA.Run()
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if done, err := simB.Advance(ctx, 2); err != nil || done {
		t.Fatalf("Advance(2): done=%v err=%v", done, err)
	}
	if err := simB.InjectRequests(extra); err != nil {
		t.Fatal(err)
	}
	if p := simB.Progress(); p.Requests != len(base)+len(extra) {
		t.Fatalf("Progress.Requests=%d after injection, want %d", p.Requests, len(base)+len(extra))
	}
	if done, err := simB.Advance(ctx, 0); err != nil || !done {
		t.Fatalf("Advance to completion: done=%v err=%v", done, err)
	}
	resB := simB.Result()

	outcomes := func(res *Result) map[RequestID]RequestOutcome {
		m := make(map[RequestID]RequestOutcome, len(res.Requests))
		for _, o := range res.Requests {
			m[o.ID] = o
		}
		return m
	}
	oa, ob := outcomes(resA), outcomes(resB)
	if len(oa) != len(ob) {
		t.Fatalf("outcome counts differ: upfront %d, injected %d", len(oa), len(ob))
	}
	for id, a := range oa {
		b, ok := ob[id]
		if !ok {
			t.Fatalf("request %d missing from injected run", id)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("request %d outcome differs: upfront %+v, injected %+v", id, a, b)
		}
	}
}

func TestInjectRequestsValidation(t *testing.T) {
	city := testCity(t)
	var buf bytes.Buffer
	s, _, _ := recordedSim(t, city, spreadRequests(city, 3, simStart, time.Hour), &buf)
	ctx := context.Background()
	if done, err := s.Advance(ctx, 1); err != nil || done {
		t.Fatalf("Advance(1): done=%v err=%v", done, err)
	}

	bad := []Request{{ID: 50, Seg: roadnet.SegmentID(99999), AppearAt: simStart.Add(2 * time.Hour)}}
	if err := s.InjectRequests(bad); err == nil {
		t.Error("invalid segment accepted")
	}
	past := []Request{{ID: 51, Seg: 0, AppearAt: simStart}}
	if err := s.InjectRequests(past); err == nil {
		t.Error("request appearing before simulation time accepted")
	}
	// All-or-nothing: one bad request rejects the whole batch.
	mixed := []Request{
		{ID: 52, Seg: 0, AppearAt: simStart.Add(2 * time.Hour)},
		{ID: 53, Seg: roadnet.SegmentID(99999), AppearAt: simStart.Add(2 * time.Hour)},
	}
	before := s.Progress().Requests
	if err := s.InjectRequests(mixed); err == nil {
		t.Error("mixed batch accepted")
	}
	if got := s.Progress().Requests; got != before {
		t.Errorf("rejected batch still grew the request table: %d -> %d", before, got)
	}

	if done, err := s.Advance(ctx, 0); err != nil || !done {
		t.Fatalf("Advance to completion: done=%v err=%v", done, err)
	}
	if err := s.InjectRequests([]Request{{ID: 54, Seg: 0, AppearAt: simStart.Add(30 * time.Hour)}}); err == nil {
		t.Error("injection into a finished run accepted")
	}
}

// TestAdvanceCaptureRestoreRoundTrip pins that an Advance stop point is
// a valid snapshot point: capture mid-run, rebuild a fresh simulator,
// restore, finish — the event log and outcomes match the uninterrupted
// run byte-for-byte.
func TestAdvanceCaptureRestoreRoundTrip(t *testing.T) {
	city := testCity(t)
	reqs := spreadRequests(city, 10, simStart, 2*time.Hour)

	var bufA, bufB bytes.Buffer
	simA, logA, recA := recordedSim(t, city, reqs, &bufA)
	resA, err := simA.Run()
	if err != nil {
		t.Fatal(err)
	}
	logA.Append(recA)
	if err := logA.Close(); err != nil {
		t.Fatal(err)
	}

	simB1, logB, recB1 := recordedSim(t, city, reqs, &bufB)
	ctx := context.Background()
	if done, err := simB1.Advance(ctx, 3); err != nil || done {
		t.Fatalf("Advance(3): done=%v err=%v", done, err)
	}
	blob, err := simB1.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	recState := recB1.CaptureState()

	// Fresh simulator over the same inputs, recorder restored to the
	// captured cursor, state restored, run to completion.
	cfg := shortConfig()
	recB2 := logB.Recorder("run-0")
	recB2.RestoreState(recState)
	cfg.Events = recB2
	starts := []roadnet.Position{
		vehicleAtLandmark(t, city, city.Hospitals[0]),
		vehicleAtLandmark(t, city, city.Depot),
	}
	simB2, err := New(city, StaticCost{}, greedyDisp{}, reqs, starts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := simB2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if done, err := simB2.Advance(ctx, 0); err != nil || !done {
		t.Fatalf("Advance after restore: done=%v err=%v", done, err)
	}
	resB := simB2.Result()
	logB.Append(recB2)
	if err := logB.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Error("event logs differ between uninterrupted run and capture/restore run")
	}
	if !reflect.DeepEqual(resA.Requests, resB.Requests) {
		t.Error("request outcomes differ after capture/restore")
	}

	// A finished run's state also round-trips: the restored simulator is
	// terminal and queryable without re-emitting run_end.
	finBlob, err := simB2.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	simC, err := New(city, StaticCost{}, greedyDisp{}, reqs, starts, shortConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := simC.RestoreState(finBlob); err != nil {
		t.Fatal(err)
	}
	if done, err := simC.Advance(ctx, 1); err != nil || !done {
		t.Fatalf("Advance on restored finished run: done=%v err=%v", done, err)
	}
	if resC := simC.Result(); resC == nil {
		t.Fatal("restored finished run has no Result")
	} else if !reflect.DeepEqual(resC.Requests, resB.Requests) {
		t.Error("restored finished run's outcomes differ")
	}
}

// TestCaptureStateBytesDeterministic: one mid-run state, with requests
// waiting on several segments, always encodes to the same bytes (gob
// would write the active-request map in random order).
func TestCaptureStateBytesDeterministic(t *testing.T) {
	city := testCity(t)
	var buf bytes.Buffer
	s, _, _ := recordedSim(t, city, spreadRequests(city, 24, simStart, 20*time.Minute), &buf)
	if done, err := s.Advance(context.Background(), 4); err != nil || done {
		t.Fatalf("Advance(4): done=%v err=%v", done, err)
	}
	if len(s.activeBySeg) < 3 {
		t.Fatalf("requests wait on %d segments, want at least 3", len(s.activeBySeg))
	}
	first, err := s.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := s.CaptureState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("capture %d encoded different bytes", i)
		}
	}
}
