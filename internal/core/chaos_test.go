package core

import (
	"bytes"
	"testing"

	"mobirescue/internal/chaos"
	"mobirescue/internal/obs/eventlog"
)

// TestChaosDegradationBounded is the PR's acceptance gate: under the
// default chaos profile — surge closures, breakdowns, sensing faults,
// and dispatcher faults all active — the Resilient-wrapped MobiRescue
// run must complete with no escaping panic and still serve at least 70%
// of its fault-free count on the small scenario.
func TestChaosDegradationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance runs two full sim days")
	}
	sys := testSystem(t)
	defer func() {
		if err := sys.SetChaos(chaos.Off(), 0); err != nil {
			t.Errorf("restoring benign config: %v", err)
		}
	}()

	// Fault-free reference run of the untrained policy (episodes=0: the
	// comparison is about robustness of dispatch, not learning).
	if err := sys.SetChaos(chaos.Off(), 0); err != nil {
		t.Fatal(err)
	}
	base, err := sys.RunMethod("mr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalServed() == 0 {
		t.Fatal("fault-free run served nothing; scenario fixture broken")
	}

	// Same day under the default profile. Any injected Decide panic that
	// escaped dispatch.Resilient would fail this test outright.
	if err := sys.SetChaos(chaos.DefaultProfile(), 7); err != nil {
		t.Fatal(err)
	}
	faulty, err := sys.RunMethod("mr", 0)
	if err != nil {
		t.Fatalf("chaotic run errored: %v", err)
	}

	served, ref := faulty.TotalServed(), base.TotalServed()
	t.Logf("served: fault-free=%d chaotic=%d resilience={%s}", ref, served, faulty.Resilience)
	if float64(served) < 0.7*float64(ref) {
		t.Errorf("chaotic run served %d < 70%% of fault-free %d", served, ref)
	}

	// Re-running with the same seed reproduces the same outcome — the
	// CLI's -chaos-seed contract at system level.
	again, err := sys.RunMethod("mr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.TotalServed() != served || again.Resilience != faulty.Resilience {
		t.Errorf("same seed, different outcome: served %d vs %d, resilience %+v vs %+v",
			again.TotalServed(), served, again.Resilience, faulty.Resilience)
	}
}

// TestChaosRejectionsReachResult pins that the simulator sees, rejects
// and counts every malformed order a chaotic dispatcher emits: the
// Resilient wrapper passes them through, so the run's resilience stats
// equal the evaluation run's order_reject events kind by kind.
func TestChaosRejectionsReachResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full chaotic sim day")
	}
	sc := testScenario(t)
	sys, err := NewSystem(sc, DefaultSystemConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SetChaos(chaos.DefaultProfile(), 7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	l, err := eventlog.New(&buf, sys.BuildManifest("small", sc.Config), eventlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetEventLog(l)
	res, err := sys.RunMethod("mr", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := eventlog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rejects := map[string]int{}
	for _, e := range log.Events {
		if e.Type == eventlog.TypeOrderReject {
			rejects[e.Kind]++
		}
	}
	got := res.Resilience
	if got.TotalRejected() == 0 {
		t.Fatalf("the run counts no rejected orders; its event log has %v", rejects)
	}
	for kind, n := range map[string]int{
		"bad_vehicle": got.OrdersRejectedBadVehicle,
		"bad_target":  got.OrdersRejectedBadTarget,
		"duplicate":   got.OrdersRejectedDuplicate,
	} {
		if rejects[kind] != n {
			t.Errorf("%s: result counts %d, event log %d", kind, n, rejects[kind])
		}
	}
}
