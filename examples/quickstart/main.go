// Quickstart: build a small synthetic disaster scenario, train the
// MobiRescue models, and dispatch rescue teams over the evaluation day.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"mobirescue"
)

func main() {
	log.SetFlags(0)

	// 1. Build the world: a seven-region Charlotte-like city, a
	//    Florence-like evaluation hurricane and a Michael-like training
	//    hurricane, each with its flood timeline and 400 synthetic
	//    residents' GPS traces.
	fmt.Println("building scenario...")
	sc, err := mobirescue.BuildScenario(mobirescue.SmallScenarioConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  city: %d road segments in %d regions, %d hospitals\n",
		sc.City.Graph.NumSegments(), sc.City.NumRegions(), len(sc.City.Hospitals))
	fmt.Printf("  evaluation day %d has %d rescue requests\n\n",
		sc.Eval.PeakRequestDay(), sc.Eval.MaxDailyRequests())

	// 2. Assemble the system: this trains the SVM rescue-request
	//    predictor on the training hurricane's traces.
	fmt.Println("training SVM request predictor...")
	sys, err := mobirescue.NewSystem(sc, mobirescue.DefaultSystemConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  SVM: %d support vectors\n\n", sys.SVM.NumSVs())

	// 3. Train the RL dispatcher by replaying the training disaster day.
	fmt.Println("training RL dispatcher (4 episodes)...")
	returns, err := sys.TrainRLParallel(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  timely served per training episode: %v\n\n", returns)

	// 4. Dispatch on the evaluation day.
	fmt.Println("running MobiRescue on the evaluation day...")
	res, err := sys.RunMethod("mr", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  requests:       %d\n", len(res.Requests))
	fmt.Printf("  served:         %d\n", res.TotalServed())
	fmt.Printf("  timely served:  %d (within %v)\n", res.TotalTimelyServed(), res.Config.TimelyThreshold)
	fmt.Printf("  compute delay:  %v per dispatch round\n",
		res.MeanComputeDelay().Round(100*time.Millisecond))
}
