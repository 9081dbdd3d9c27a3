package mobirescue

import (
	"testing"
	"time"

	"mobirescue/internal/core"
)

// TestConfigsAreUsable pins the paper's constants in the default
// configs without building a scenario.
func TestConfigsAreUsable(t *testing.T) {
	full := core.DefaultScenarioConfig()
	if full.People != 8590 {
		t.Errorf("full population = %d, want the paper's 8590", full.People)
	}
	if small := core.SmallScenarioConfig(); small.People >= full.People {
		t.Error("small scenario should be smaller than full")
	}
	sys := core.DefaultSystemConfig()
	if sys.TrainEpisodes <= 0 {
		t.Error("default system must train")
	}
	if sys.Sim.Period != 5*time.Minute {
		t.Errorf("dispatch period = %v, want the paper's 5 minutes", sys.Sim.Period)
	}
	if sys.Sim.Capacity != 5 {
		t.Errorf("capacity = %d, want the paper's c=5", sys.Sim.Capacity)
	}
}

// TestMethodNames pins the order in which every command reports the
// three methods.
func TestMethodNames(t *testing.T) {
	want := []string{"MobiRescue", "Rescue", "Schedule"}
	if len(core.MethodNames) != len(want) {
		t.Fatalf("MethodNames = %v, want %v", core.MethodNames, want)
	}
	for i, name := range want {
		if core.MethodNames[i] != name {
			t.Errorf("MethodNames[%d] = %q, want %q", i, core.MethodNames[i], name)
		}
	}
}
