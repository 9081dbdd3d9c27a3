// Dispatchcompare runs MobiRescue against the paper's two baselines
// (Rescue and Schedule) on the same evaluation day and prints the
// headline comparison (Figures 9–14 in summary form).
//
//	go run ./examples/dispatchcompare
package main

import (
	"fmt"
	"log"
	"time"

	"mobirescue"
	"mobirescue/internal/stats"
)

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
	if _, err := sys.TrainRLParallel(8); err != nil {
		log.Fatal(err)
	}

	fmt.Println("running the three methods on the evaluation day...")
	cmp, err := sys.RunComparison()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-11s %8s %8s %12s %14s %14s %12s\n",
		"method", "served", "timely", "compute", "medDelay(s)", "medTimeli(s)", "meanServing")
	for _, name := range mobirescue.MethodNames {
		res := cmp.Results[name]
		medDelay, _ := stats.NewCDF(res.DrivingDelaysSeconds()).Quantile(0.5)
		medTimeli, _ := stats.NewCDF(res.TimelinessSeconds()).Quantile(0.5)
		meanServing := 0.0
		for _, r := range res.Rounds {
			meanServing += float64(r.Serving)
		}
		meanServing /= float64(len(res.Rounds))
		fmt.Printf("%-11s %8d %8d %12v %14.0f %14.0f %12.1f\n",
			name, res.TotalServed(), res.TotalTimelyServed(),
			res.MeanComputeDelay().Round(time.Second), medDelay, medTimeli, meanServing)
	}

	pq, err := sys.PredictionQuality()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrequest prediction (Figures 15-16): SVM accuracy %.3f / precision %.3f "+
		"vs time-series %.3f / %.3f\n",
		pq.SVMOverall.Accuracy(), pq.SVMOverall.Precision(),
		pq.TSAOverall.Accuracy(), pq.TSAOverall.Precision())
}
