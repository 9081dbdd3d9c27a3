package eventlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func testManifest() Manifest {
	return Manifest{
		Scale:      "small",
		ConfigHash: "fnv64a:deadbeef",
		Seed:       42,
		Workers:    4,
		GoVersion:  "go1.22",
	}
}

func emitSample(rec *Recorder, runEndServed int) {
	t0 := time.Date(2017, 8, 27, 0, 0, 0, 0, time.UTC)
	rec.Emit(Event{Type: TypeRunStart, Run: rec.Run(), Method: "MobiRescue", T: t0, N: 40})
	for w := 1; w <= 2; w++ {
		rec.SetWindow(w)
		rec.Emit(Event{Type: TypeWindowOpen, T: t0.Add(time.Duration(w) * time.Hour), Active: 3 * w})
		rec.Emit(Event{Type: TypeDecide, Method: "MobiRescue", Active: 3 * w, Orders: w, DelayMS: 12})
		rec.Emit(Event{Type: TypeOrder, Vehicle: w, Target: 7})
		rec.Emit(Event{Type: TypeWindowClose, Orders: w, Serving: w, Served: w - 1})
	}
	rec.SetWindow(0)
	rec.Emit(Event{Type: TypeRunEnd, Run: rec.Run(), Method: "MobiRescue", Served: runEndServed, Timely: runEndServed - 1, Unserved: 40 - runEndServed})
}

func buildLog(t *testing.T, opts Options, served int) []byte {
	t.Helper()
	var buf bytes.Buffer
	l, err := New(&buf, testManifest(), opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := l.Recorder("day1")
	emitSample(rec, served)
	l.Append(rec)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	raw := buildLog(t, Options{}, 30)
	rl, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if rl.Manifest.Seed != 42 || rl.Manifest.Scale != "small" || rl.Manifest.Version != Version {
		t.Fatalf("manifest round-trip: %+v", rl.Manifest)
	}
	if rl.Manifest.Workers != 4 {
		t.Fatalf("manifest workers: %+v", rl.Manifest)
	}
	wantTypes := []Type{
		TypeRunStart,
		TypeWindowOpen, TypeDecide, TypeOrder, TypeWindowClose,
		TypeWindowOpen, TypeDecide, TypeOrder, TypeWindowClose,
		TypeRunEnd,
	}
	if len(rl.Events) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(rl.Events), len(wantTypes))
	}
	for i, want := range wantTypes {
		if rl.Events[i].Type != want {
			t.Fatalf("event %d: got %q want %q", i, rl.Events[i].Type, want)
		}
	}
	// SetWindow stamping: decide in round 2 carries w=2.
	if rl.Events[5].W != 2 || rl.Events[6].W != 2 {
		t.Fatalf("window stamping: %+v / %+v", rl.Events[5].Event, rl.Events[6].Event)
	}
	// run_end emitted after SetWindow(0) carries no window.
	if rl.Events[9].W != 0 {
		t.Fatalf("run_end window: %+v", rl.Events[9].Event)
	}
}

// Every line must be standalone valid JSON — the whole point of JSONL.
func TestLinesAreValidJSON(t *testing.T) {
	raw := buildLog(t, Options{}, 30)
	for i, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i+1, err, line)
		}
		if _, ok := v["ev"]; !ok {
			t.Fatalf("line %d missing ev discriminator: %s", i+1, line)
		}
	}
}

// The encoder must be deterministic: same events, same bytes.
func TestEncodeDeterministic(t *testing.T) {
	a := buildLog(t, Options{}, 30)
	b := buildLog(t, Options{}, 30)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical emission produced different bytes:\nA:\n%s\nB:\n%s", a, b)
	}
}

// Worker counts are informational: logs that differ only in
// Manifest.Workers must be byte-identical after the header, and
// Comparable must hold.
func TestWorkersInformational(t *testing.T) {
	build := func(workers int) []byte {
		var buf bytes.Buffer
		m := testManifest()
		m.Workers = workers
		l, err := New(&buf, m, Options{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rec := l.Recorder("day1")
		emitSample(rec, 30)
		l.Append(rec)
		l.Close()
		return buf.Bytes()
	}
	a, b := build(1), build(8)
	ta := a[bytes.IndexByte(a, '\n')+1:]
	tb := b[bytes.IndexByte(b, '\n')+1:]
	if !bytes.Equal(ta, tb) {
		t.Fatalf("post-header bytes differ across worker counts")
	}
	ra, _ := Read(bytes.NewReader(a))
	rb, _ := Read(bytes.NewReader(b))
	if ok, why := ra.Manifest.Comparable(rb.Manifest); !ok {
		t.Fatalf("manifests not comparable: %s", why)
	}
	d := Diff(ra, rb)
	if !d.Identical {
		t.Fatalf("diff across worker counts not identical: %+v", d.First)
	}
	if !strings.Contains(d.ManifestNote, "workers 1 vs 8") {
		t.Fatalf("informational delta not surfaced: %q", d.ManifestNote)
	}
}

// Manifests written before the training rollout bound folded into
// -workers carry "train_workers"; such a log still reads, and diffs
// clean against the same log without the field.
func TestReadManifestWithRetiredTrainField(t *testing.T) {
	cur := buildLog(t, Options{}, 30)
	old := bytes.Replace(cur, []byte(`,"go":`), []byte(`,"train_workers":8,"go":`), 1)
	if bytes.Equal(old, cur) {
		t.Fatal("manifest line has no go field to place train_workers before")
	}
	rOld, err := Read(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("reading a manifest with train_workers: %v", err)
	}
	rCur, err := Read(bytes.NewReader(cur))
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(rOld, rCur); !d.Comparable || !d.Identical || d.ManifestNote != "" {
		t.Fatalf("diff = {Comparable %v Identical %v note %q}, want a clean diff",
			d.Comparable, d.Identical, d.ManifestNote)
	}
}

// Reorder-buffer semantics: recorders appended in logical order produce
// the same bytes regardless of emission interleaving.
func TestAppendOrderDefinesBytes(t *testing.T) {
	build := func(concurrent bool) []byte {
		var buf bytes.Buffer
		l, _ := New(&buf, testManifest(), Options{})
		r1, r2 := l.Recorder("day1"), l.Recorder("day2")
		if concurrent {
			done := make(chan struct{}, 2)
			go func() { emitSample(r2, 20); done <- struct{}{} }()
			go func() { emitSample(r1, 30); done <- struct{}{} }()
			<-done
			<-done
		} else {
			emitSample(r1, 30)
			emitSample(r2, 20)
		}
		l.Append(r1) // logical order, not completion order
		l.Append(r2)
		l.Close()
		return buf.Bytes()
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("append order did not define the byte stream")
	}
}

func TestDiffFirstDivergence(t *testing.T) {
	a := buildLog(t, Options{}, 30)
	b := buildLog(t, Options{}, 25) // diverges at run_end only? no — served counts in window_close are same; run_end differs
	ra, err := Read(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Read(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(ra, ra); !d.Identical {
		t.Fatalf("self-diff not identical: %+v", d.First)
	}
	d := Diff(ra, rb)
	if d.Identical {
		t.Fatal("expected divergence")
	}
	if d.First == nil || d.First.Why != "records differ" {
		t.Fatalf("first divergence: %+v", d.First)
	}
	if Type(typeOf(t, d.First.A)) != TypeRunEnd {
		t.Fatalf("first divergent record should be run_end, got %s", d.First.A)
	}
}

func typeOf(t *testing.T, raw string) string {
	t.Helper()
	var v struct {
		EV string `json:"ev"`
	}
	if err := json.Unmarshal([]byte(raw), &v); err != nil {
		t.Fatalf("typeOf: %v", err)
	}
	return v.EV
}

func TestDiffTruncation(t *testing.T) {
	full := buildLog(t, Options{}, 30)
	lines := strings.SplitAfter(string(full), "\n")
	trunc := strings.Join(lines[:len(lines)-2], "") // drop run_end
	ra, _ := Read(bytes.NewReader(full))
	rb, err := Read(strings.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(ra, rb)
	if d.Identical || d.First == nil || d.First.Why != "log B ends early" {
		t.Fatalf("truncation diff: %+v", d.First)
	}
}

// TestDiffTornTail pins that a log cut mid-write is not identical to
// the complete log, even when every complete record matches, and that
// the timeline says the torn record was left out.
func TestDiffTornTail(t *testing.T) {
	full := buildLog(t, Options{}, 30)
	torn := append(append([]byte(nil), full...), `{"ev":"pickup","w":3,"veh`...)
	ra, err := Read(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Read(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Events) != len(ra.Events) {
		t.Fatalf("torn log kept %d complete records, want %d", len(rb.Events), len(ra.Events))
	}
	for _, c := range []struct {
		a, b *RunLog
		why  string
	}{
		{ra, rb, "log B ends in a torn record"},
		{rb, ra, "log A ends in a torn record"},
	} {
		d := Diff(c.a, c.b)
		if d.Identical || d.First == nil || d.First.Why != c.why {
			t.Errorf("diff = identical %v, first %+v; want %q", d.Identical, d.First, c.why)
		}
	}
	if d := Diff(rb, rb); !d.Identical {
		t.Errorf("a torn log differs from itself: %+v", d.First)
	}
	var buf bytes.Buffer
	WriteTimeline(&buf, rb, BuildTimelines(rb))
	if !strings.Contains(buf.String(), "torn record") {
		t.Errorf("timeline does not mention the torn record:\n%s", buf.String())
	}
}

func TestDiffSemanticDeltaStillDiffs(t *testing.T) {
	a := buildLog(t, Options{}, 30)
	var buf bytes.Buffer
	m := testManifest()
	m.Seed = 43
	l, _ := New(&buf, m, Options{})
	rec := l.Recorder("day1")
	emitSample(rec, 30)
	l.Append(rec)
	l.Close()
	ra, _ := Read(bytes.NewReader(a))
	rb, _ := Read(bytes.NewReader(buf.Bytes()))
	d := Diff(ra, rb)
	if !d.Comparable {
		t.Fatalf("seed deltas must stay diffable, got incomparable: %q", d.ManifestNote)
	}
	if !strings.Contains(d.ManifestNote, "seed 42 vs 43") {
		t.Fatalf("note: %q", d.ManifestNote)
	}
	if !d.Identical {
		t.Fatal("identical streams under different seeds should still report zero divergence")
	}
}

func TestDiffVersionMismatchIncomparable(t *testing.T) {
	a := buildLog(t, Options{}, 5)
	ra, _ := Read(bytes.NewReader(a))
	rb, _ := Read(bytes.NewReader(a))
	rb.Manifest.Version++
	d := Diff(ra, rb)
	if d.Comparable {
		t.Fatal("schema version mismatch must not be comparable")
	}
	if !strings.Contains(d.ManifestNote, "schema version") {
		t.Fatalf("note: %q", d.ManifestNote)
	}
}

func TestTimingFieldsGated(t *testing.T) {
	emit := func(opts Options) []byte {
		var buf bytes.Buffer
		l, _ := New(&buf, testManifest(), opts)
		rec := l.Recorder("day1")
		rec.SetWindow(1)
		rec.Emit(Event{Type: TypeDecide, Method: "Rescue", Active: 5, Orders: 2, DelayMS: 9, LatencyNS: 12345})
		l.Append(rec)
		l.Close()
		return buf.Bytes()
	}
	if got := string(emit(Options{})); strings.Contains(got, "latency_ns") {
		t.Fatalf("latency leaked into deterministic mode: %s", got)
	}
	got := string(emit(Options{Timing: true}))
	if !strings.Contains(got, `"latency_ns":12345`) {
		t.Fatalf("timing mode dropped latency: %s", got)
	}
	if !strings.Contains(got, `"timing":true`) {
		t.Fatalf("manifest missing timing flag: %s", got)
	}
}

func TestDiffTimingIgnoresLatency(t *testing.T) {
	emit := func(lat int64) []byte {
		var buf bytes.Buffer
		l, _ := New(&buf, testManifest(), Options{Timing: true})
		rec := l.Recorder("day1")
		rec.SetWindow(1)
		rec.Emit(Event{Type: TypeDecide, Method: "Rescue", Active: 5, Orders: 2, DelayMS: 9, LatencyNS: lat})
		l.Append(rec)
		l.Close()
		return buf.Bytes()
	}
	ra, _ := Read(bytes.NewReader(emit(111)))
	rb, _ := Read(bytes.NewReader(emit(999)))
	if d := Diff(ra, rb); !d.Identical {
		t.Fatalf("timing diff should ignore latency: %+v", d.First)
	}
}

func TestRecorderDropCap(t *testing.T) {
	var buf bytes.Buffer
	l, _ := New(&buf, testManifest(), Options{MaxRecorderBytes: 64})
	rec := l.Recorder("day1")
	for i := 0; i < 100; i++ {
		rec.Emit(Event{Type: TypePickup, Vehicle: 1, Request: i})
	}
	l.Append(rec)
	events, _, drops := l.Stats()
	if drops == 0 {
		t.Fatal("expected drops past the buffer cap")
	}
	if events+drops != 100 {
		t.Fatalf("events %d + drops %d != 100", events, drops)
	}
	l.Close()
}

func TestNilLogAndRecorder(t *testing.T) {
	var l *Log
	if l.Timing() {
		t.Fatal("nil log timing")
	}
	rec := l.Recorder("x")
	if rec != nil {
		t.Fatal("nil log must hand out nil recorders")
	}
	// All no-ops, no panics:
	rec.SetWindow(3)
	rec.Emit(Event{Type: TypeDecide})
	if rec.Run() != "" || rec.Timing() {
		t.Fatal("nil recorder accessors")
	}
	l.Append(rec)
	l.EnableMetrics(nil)
	if _, _, d := l.Stats(); d != 0 {
		t.Fatal("nil log stats")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmitDisabledZeroAlloc(t *testing.T) {
	var rec *Recorder
	e := Event{Type: TypeDecide, Method: "MobiRescue", Active: 10, Orders: 3}
	allocs := testing.AllocsPerRun(1000, func() {
		rec.Emit(e)
		rec.SetWindow(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled emit allocated %v/op", allocs)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty log accepted")
	}
	if _, err := Read(strings.NewReader("{\"ev\":\"decide\"}\n")); err == nil {
		t.Fatal("missing manifest accepted")
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("{\"ev\":\"manifest\",\"v\":99,\"seed\":1}\n")); err == nil {
		t.Fatal("future schema version accepted")
	}
}

func TestTimelineAndResilience(t *testing.T) {
	var buf bytes.Buffer
	l, _ := New(&buf, testManifest(), Options{})
	rec := l.Recorder("day1")
	t0 := time.Date(2017, 8, 27, 0, 0, 0, 0, time.UTC)
	rec.Emit(Event{Type: TypeRunStart, Run: "day1", Method: "MobiRescue", T: t0, N: 10})
	// Windows 1-2 healthy, fault in 3 dips serving, recovery in 5.
	serving := []int{4, 4, 1, 2, 4}
	served := []int{1, 2, 2, 3, 5}
	for w := 1; w <= 5; w++ {
		rec.SetWindow(w)
		rec.Emit(Event{Type: TypeWindowOpen, Active: 6 - w})
		if w == 3 {
			rec.Emit(Event{Type: TypeFault, Kind: "stall", Vehicle: 2, DurMS: 60000})
		}
		rec.Emit(Event{Type: TypeWindowClose, Orders: 1, Serving: serving[w-1], Served: served[w-1]})
	}
	rec.SetWindow(0)
	rec.Emit(Event{Type: TypeRunEnd, Run: "day1", Method: "MobiRescue", Served: 5, Timely: 4, Unserved: 5})
	l.Append(rec)
	l.Close()

	rl, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tls := BuildTimelines(rl)
	if len(tls) != 1 {
		t.Fatalf("timelines: %d", len(tls))
	}
	tl := tls[0]
	if tl.Method != "MobiRescue" || len(tl.Windows) != 5 || tl.Served != 5 {
		t.Fatalf("timeline: %+v", tl)
	}
	if tl.Windows[2].Faults != 1 || tl.Windows[2].Serving != 1 {
		t.Fatalf("window 3: %+v", tl.Windows[2])
	}
	// Windowed reward: served delta minus active penalty.
	wantReward := 1.0*float64(served[0]) - 0.05*float64(5)
	if got := tl.Windows[0].Reward; got != wantReward {
		t.Fatalf("window 1 reward %v want %v", got, wantReward)
	}

	res := BuildResilience(rl, tls)
	if len(res) != 1 {
		t.Fatalf("resilience: %d", len(res))
	}
	r := res[0]
	if r.FirstFaultW != 3 || r.Baseline != 4 || r.Dip != 1 || r.DipW != 3 || r.RecoveredW != 5 {
		t.Fatalf("resilience: %+v", r)
	}

	var out strings.Builder
	WriteTimeline(&out, rl, tls)
	for _, want := range []string{"run day1 (MobiRescue)", "resilience", "recovered"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("timeline output missing %q:\n%s", want, out.String())
		}
	}
}

func TestStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	l, _ := New(&buf, Manifest{Seed: 1, Scale: "we\"ird\\scale\n"}, Options{})
	l.Close()
	rl, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped manifest unreadable: %v", err)
	}
	if rl.Manifest.Scale != "we\"ird\\scale\n" {
		t.Fatalf("escaping round-trip: %q", rl.Manifest.Scale)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	l, _ := New(&bytes.Buffer{}, testManifest(), Options{})
	rec := l.Recorder("bench")
	rec.SetWindow(1)
	e := Event{Type: TypeDecide, Method: "MobiRescue", Active: 25, Orders: 8, DelayMS: 14}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(e)
		if len(rec.buf) > 1<<20 {
			rec.buf = rec.buf[:0] // keep memory bounded; append cost still measured
		}
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var rec *Recorder
	e := Event{Type: TypeDecide, Method: "MobiRescue", Active: 25, Orders: 8, DelayMS: 14}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Emit(e)
	}
}
