package core

import (
	"bytes"
	"testing"

	"mobirescue/internal/obs/eventlog"
)

// The flight recorder extends the repo's determinism witness from
// results to telemetry: everything after the manifest header must be
// byte-identical for any Workers value. This test runs
// training plus the full three-method comparison at workers 1, 4 and 8
// and compares the raw streams (run with -race: the recorder append
// path is exactly where a reorder bug would hide).
func TestEventLogByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-worker event-log replay in -short mode")
	}
	sc := testScenario(t)
	logs := map[int][]byte{}
	for _, workers := range []int{1, 4, 8} {
		cfg := DefaultSystemConfig()
		cfg.TrainEpisodes = 2
		cfg.Workers = workers
		sys, err := NewSystem(sc, cfg)
		if err != nil {
			t.Fatalf("workers=%d: NewSystem: %v", workers, err)
		}
		var buf bytes.Buffer
		l, err := eventlog.New(&buf, sys.BuildManifest("small", sc.Config), eventlog.Options{})
		if err != nil {
			t.Fatalf("workers=%d: eventlog.New: %v", workers, err)
		}
		sys.SetEventLog(l)
		if _, err := sys.TrainRLParallel(2); err != nil {
			t.Fatalf("workers=%d: TrainRLParallel: %v", workers, err)
		}
		if _, err := sys.RunComparison(); err != nil {
			t.Fatalf("workers=%d: RunComparison: %v", workers, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("workers=%d: Close: %v", workers, err)
		}
		logs[workers] = buf.Bytes()
	}

	postHeader := func(raw []byte) []byte {
		return raw[bytes.IndexByte(raw, '\n')+1:]
	}
	base := logs[1]
	for _, workers := range []int{4, 8} {
		if !bytes.Equal(postHeader(base), postHeader(logs[workers])) {
			t.Errorf("event stream differs between workers=1 and workers=%d", workers)
		}
	}

	// The decoded view must agree: zero divergence, worker delta noted
	// as informational only.
	a, err := eventlog.Read(bytes.NewReader(logs[1]))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eventlog.Read(bytes.NewReader(logs[8]))
	if err != nil {
		t.Fatal(err)
	}
	d := eventlog.Diff(a, b)
	if !d.Comparable || !d.Identical {
		t.Fatalf("diff across workers: comparable=%v identical=%v first=%+v",
			d.Comparable, d.Identical, d.First)
	}
	if a.Manifest.Workers != 1 || b.Manifest.Workers != 8 {
		t.Fatalf("manifests did not record worker counts: %+v / %+v", a.Manifest, b.Manifest)
	}

	// The stream must actually contain the full event vocabulary of a
	// training + comparison session.
	seen := map[eventlog.Type]bool{}
	for _, r := range a.Events {
		seen[r.Type] = true
	}
	for _, want := range []eventlog.Type{
		eventlog.TypeTrainRound, eventlog.TypeRunStart, eventlog.TypeWindowOpen,
		eventlog.TypeDecide, eventlog.TypeOrder, eventlog.TypeWindowClose,
		eventlog.TypePickup, eventlog.TypeRunEnd,
	} {
		if !seen[want] {
			t.Errorf("event stream missing %q events", want)
		}
	}
}
