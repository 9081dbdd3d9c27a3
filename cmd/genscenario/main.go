// Command genscenario generates a synthetic scenario and writes its
// pieces to disk: the city road network (JSON) and summary statistics of
// the generated mobility dataset. Useful for inspecting the substrate
// the experiments run on, or for loading the same city elsewhere.
//
// Usage:
//
//	genscenario [-scale small|mid|full] [-seed S] [-city city.json] [-people N]
//
// With -people N (e.g. 10000, 100000, 1000000) it additionally
// synthesizes a streaming metro-scale population tier over the same
// city — deterministic in the seed, region-weighted, O(people) memory —
// and prints its per-region distribution. Streaming tiers never
// materialize GPS tracks, so the 1M tier builds in seconds.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mobirescue/internal/core"
	"mobirescue/internal/mobility"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("genscenario: ")
	var (
		scale    = flag.String("scale", "small", "scenario scale: "+core.ScaleNames)
		seed     = flag.Int64("seed", 1, "random seed")
		cityPath = flag.String("city", "", "write the city road network JSON here")
		people   = flag.Int("people", 0, "also synthesize a streaming population tier of this size (10000|100000|1000000)")
	)
	flag.Parse()

	cfg, err := core.ScenarioConfigForScale(*scale)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Seed = *seed
	sc, err := core.BuildScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *cityPath != "" {
		f, err := os.Create(*cityPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := sc.City.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote city to %s\n", *cityPath)
	}

	fmt.Printf("city:      %d landmarks, %d segments, %d regions, %d hospitals\n",
		sc.City.Graph.NumLandmarks(), sc.City.Graph.NumSegments(),
		sc.City.NumRegions(), len(sc.City.Hospitals))
	for _, e := range []struct {
		name string
		ep   *core.Episode
	}{{"eval (Florence-like)", sc.Eval}, {"train (Michael-like)", sc.Train}} {
		ep := e.ep
		fmt.Printf("%s:\n", e.name)
		fmt.Printf("  storm:    %s, impact %s .. %s\n", ep.Storm.Name,
			ep.Storm.Start.Format("Jan 2 15:04"), ep.Storm.End.Format("Jan 2 15:04"))
		fmt.Printf("  people:   %d\n", len(ep.Data.People))
		fmt.Printf("  points:   %d GPS samples\n", ep.Data.Traces.NumSamples())
		fmt.Printf("  trips:    %d\n", len(ep.Data.Trips))
		byDay := map[int]int{}
		for _, r := range ep.Data.Rescues {
			byDay[ep.Data.Config.DayIndex(r.RequestTime)]++
		}
		fmt.Printf("  rescues:  %d by day %v (eval day %d, max daily %d)\n",
			len(ep.Data.Rescues), byDay, ep.PeakRequestDay(), ep.MaxDailyRequests())
		byPhase := map[mobility.Phase]int{}
		for _, tr := range ep.Data.Trips {
			byPhase[ep.Data.Config.PhaseOf(tr.Depart)]++
		}
		fmt.Printf("  trips by phase: before=%d during=%d after=%d\n",
			byPhase[mobility.PhaseBefore], byPhase[mobility.PhaseDuring], byPhase[mobility.PhaseAfter])
	}

	if *people > 0 {
		mcfg := sc.Eval.Data.Config
		mcfg.NumPeople = *people
		st, err := mobility.NewStreamer(sc.City, mcfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("streaming tier: %d people (seed %d, O(people) memory, no stored tracks)\n",
			st.NumPeople(), mcfg.Seed)
		counts := st.HomeRegionCounts(sc.City)
		fmt.Printf("  homes by region:")
		for r := 1; r < len(counts); r++ {
			fmt.Printf(" %d=%d", r, counts[r])
		}
		fmt.Println()
	}
}
