package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/sim"
	"mobirescue/internal/snapshot"
)

// durableRun builds a fresh System over the shared scenario, attaches
// an event log at evPath (appending past st's cursor when resuming),
// and runs one MobiRescue invocation under d, resuming from st.
func durableRun(t *testing.T, evPath string, d Durability, st *snapshot.RunState) (*sim.Result, error) {
	t.Helper()
	sc := testScenario(t)
	cfg := DefaultSystemConfig()
	cfg.TrainEpisodes = 2
	cfg.Workers = 2
	sys, err := NewSystem(sc, cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	var elog *eventlog.Log
	if st != nil {
		elog, err = eventlog.OpenAppend(evPath, st.LogOffset, st.LogEvents, eventlog.Options{})
	} else {
		elog, err = eventlog.Create(evPath, sys.BuildManifest("small", sc.Config), eventlog.Options{})
	}
	if err != nil {
		t.Fatalf("event log: %v", err)
	}
	sys.SetEventLog(elog)
	sys.SetDurability(d, st)
	res, runErr := sys.RunMethod("mr", 2)
	if err := elog.Close(); err != nil {
		t.Fatalf("closing event log: %v", err)
	}
	return res, runErr
}

// TestRunMethodDurableStopResumeByteIdentical drives a crash-safe run
// through repeated graceful stops — one boundary of progress per
// invocation, crossing the train → trained → eval phase transitions —
// and requires the finished event log to be byte-identical to an
// uninterrupted run's.
func TestRunMethodDurableStopResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-invocation eval runs")
	}
	sc := testScenario(t)
	dir := t.TempDir()

	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err := durableRun(t, refPath, Durability{}, nil); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	snapsDir := filepath.Join(dir, "snaps")
	runPath := filepath.Join(dir, "run.jsonl")
	stop := new(atomic.Bool)
	stop.Store(true) // every invocation stops at its first boundary
	phases := []string{}
	for i := 0; ; i++ {
		if i >= 8 {
			t.Fatalf("no completion after %d invocations (phases %v)", i, phases)
		}
		if i == 4 {
			stop.Store(false) // now run to completion
		}
		mgr, err := snapshot.NewManager(snapsDir, 3)
		if err != nil {
			t.Fatal(err)
		}
		d := Durability{
			Mgr:        mgr,
			Every:      64,
			Stop:       stop,
			ConfigHash: ConfigHash(sc.Config),
			Scale:      "small",
		}
		st, _, skipped, err := snapshot.Latest(snapsDir)
		if len(skipped) != 0 {
			t.Fatalf("damaged snapshots in a clean run: %v", skipped)
		}
		if errors.Is(err, snapshot.ErrNoSnapshot) {
			st = nil
		} else if err != nil {
			t.Fatal(err)
		} else {
			phases = append(phases, st.Phase)
		}
		res, runErr := durableRun(t, runPath, d, st)
		if errors.Is(runErr, snapshot.ErrStopRequested) {
			continue
		}
		if runErr != nil {
			t.Fatalf("invocation %d: %v", i, runErr)
		}
		if res == nil {
			t.Fatalf("invocation %d: finished without a result", i)
		}
		break
	}

	// The stop loop must actually have crossed phase boundaries.
	seen := map[string]bool{}
	for _, p := range phases {
		seen[p] = true
	}
	if !seen[snapshot.PhaseTrain] || !seen[snapshot.PhaseEval] {
		t.Errorf("resume phases %v never crossed train and eval", phases)
	}

	got, err := os.ReadFile(runPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(ref) {
		t.Fatalf("stop/resume event log diverged from reference (%d vs %d bytes)", len(got), len(ref))
	}

	// A resume of the finished run reports completion without rerunning.
	mgr, err := snapshot.NewManager(snapsDir, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, err := snapshot.Latest(snapsDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != snapshot.PhaseDone {
		t.Fatalf("final snapshot phase = %q, want done", st.Phase)
	}
	d := Durability{Mgr: mgr, ConfigHash: ConfigHash(sc.Config), Scale: "small"}
	if _, runErr := durableRun(t, runPath, d, st); !errors.Is(runErr, ErrRunComplete) {
		t.Fatalf("resume of finished run: %v, want ErrRunComplete", runErr)
	}
}
