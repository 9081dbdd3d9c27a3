// Chaoscompare runs the three dispatch methods twice on the same
// evaluation day — once fault-free, once under the default chaos
// profile (surge closures, vehicle breakdowns, sensing faults, and
// dispatcher faults, with every dispatcher hardened by the Resilient
// wrapper) — and prints the degradation table plus the full resilience
// report for MobiRescue. The chaos run is seeded, so the whole output
// is reproducible.
//
//	go run ./examples/chaoscompare
package main

import (
	"fmt"
	"log"
	"os"

	"mobirescue"
	"mobirescue/internal/chaos"
	"mobirescue/internal/core"
	"mobirescue/internal/sim"
)

const chaosSeed = 7

func main() {
	log.SetFlags(0)
	fmt.Println("building scenario...")
	sc, err := mobirescue.BuildScenario(mobirescue.SmallScenarioConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys, err := mobirescue.NewSystem(sc, mobirescue.DefaultSystemConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training RL dispatcher (%d teams)...\n", sys.Teams)
	if _, err := sys.TrainRLParallel(4); err != nil {
		log.Fatal(err)
	}

	fmt.Println("fault-free comparison run...")
	base, err := sys.RunComparison()
	if err != nil {
		log.Fatal(err)
	}

	profile := chaos.DefaultProfile()
	fmt.Printf("chaotic comparison run (profile=%s, seed=%d)...\n", profile.Name, chaosSeed)
	if err := sys.SetChaos(profile, chaosSeed); err != nil {
		log.Fatal(err)
	}
	faulty, err := sys.RunComparison()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-11s %14s %14s %12s %10s\n",
		"method", "served(clean)", "served(chaos)", "retained", "hardening")
	for _, name := range core.MethodNames {
		b, f := base.Results[name], faulty.Results[name]
		retained := 100.0
		if b.TotalServed() > 0 {
			retained = 100 * float64(f.TotalServed()) / float64(b.TotalServed())
		}
		fmt.Printf("%-11s %14d %14d %11.1f%% %10d\n",
			name, b.TotalServed(), f.TotalServed(), retained,
			f.Resilience.TotalRejected()+f.Resilience.Reroutes+
				f.Resilience.StrandedDiverts+f.Resilience.VehicleStalls)
	}

	fmt.Println("\nresilience report (MobiRescue):")
	if err := sim.WriteResilienceReport(os.Stdout,
		base.Results["MobiRescue"], faulty.Results["MobiRescue"]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreproduce: go run ./cmd/experiments -chaos %s -chaos-seed %d\n",
		profile.Name, chaosSeed)
}
