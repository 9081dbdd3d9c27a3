package mobility

import (
	"reflect"
	"testing"
	"time"

	"mobirescue/internal/geo"
	"mobirescue/internal/roadnet"
)

// genTestDataset builds a small dataset shared by generation tests.
func genTestDataset(t testing.TB) (*roadnet.City, *fakeDisaster, *Dataset) {
	t.Helper()
	city := smallCity(t)
	cfg := smallConfig()
	dis := testDisaster(city, cfg)
	// Boost the hazard so the small population still yields rescues.
	cfg.TrapHazardPerHour = 0.02
	ds, err := Generate(city, dis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return city, dis, ds
}

func TestGenerateValidation(t *testing.T) {
	city := smallCity(t)
	cfg := smallConfig()
	dis := testDisaster(city, cfg)
	if _, err := Generate(nil, dis, cfg); err == nil {
		t.Error("nil city should error")
	}
	if _, err := Generate(city, nil, cfg); err == nil {
		t.Error("nil disaster should error")
	}
	bad := cfg
	bad.NumPeople = 0
	if _, err := Generate(city, dis, bad); err == nil {
		t.Error("invalid config should error")
	}
}

func TestGeneratePopulation(t *testing.T) {
	city, _, ds := genTestDataset(t)
	if len(ds.People) != ds.Config.NumPeople {
		t.Fatalf("people = %d, want %d", len(ds.People), ds.Config.NumPeople)
	}
	regionCount := make(map[int]int)
	for _, p := range ds.People {
		if p.HomeRegion < 1 || p.HomeRegion > city.NumRegions() {
			t.Fatalf("person %d region %d invalid", p.ID, p.HomeRegion)
		}
		regionCount[p.HomeRegion]++
		if p.HomeSeg == roadnet.NoSegment {
			t.Fatalf("person %d has no home segment", p.ID)
		}
		if !p.Home.Valid() || !p.Work.Valid() {
			t.Fatalf("person %d has invalid anchors", p.ID)
		}
		// Home anchor is near its landmark (250 m jitter bound).
		if d := geo.Haversine(p.Home, city.Graph.Landmark(p.HomeLM).Pos); d > 260 {
			t.Fatalf("person %d home %v m from landmark", p.ID, d)
		}
	}
	// All 7 regions inhabited.
	for r := 1; r <= 7; r++ {
		if regionCount[r] == 0 {
			t.Errorf("region %d uninhabited", r)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	city := smallCity(t)
	cfg := smallConfig()
	cfg.NumPeople = 60
	dis := testDisaster(city, cfg)
	a, err := Generate(city, dis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(city, dis, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Traces.NumSamples() != b.Traces.NumSamples() || len(a.Trips) != len(b.Trips) || len(a.Rescues) != len(b.Rescues) {
		t.Fatalf("sizes differ: (%d,%d,%d) vs (%d,%d,%d)",
			a.Traces.NumSamples(), len(a.Trips), len(a.Rescues),
			b.Traces.NumSamples(), len(b.Trips), len(b.Rescues))
	}
	if !reflect.DeepEqual(a.Traces, b.Traces) {
		t.Fatal("traces differ")
	}
}

func TestGenerateTripsCollapseDuringDisaster(t *testing.T) {
	_, _, ds := genTestDataset(t)
	cfg := ds.Config
	byPhase := map[Phase]int{}
	for _, tr := range ds.Trips {
		byPhase[cfg.PhaseOf(tr.Depart)]++
	}
	beforeDays := cfg.DisasterStart.Sub(cfg.Start).Hours() / 24
	duringDays := cfg.DisasterEnd.Sub(cfg.DisasterStart).Hours() / 24
	beforeRate := float64(byPhase[PhaseBefore]) / beforeDays
	duringRate := float64(byPhase[PhaseDuring]) / duringDays
	// City-wide, disaster-day movement drops (commutes stop; dry-street
	// people only make short local trips).
	if duringRate >= beforeRate*0.8 {
		t.Errorf("disaster trips did not drop: before=%v/day during=%v/day", beforeRate, duringRate)
	}
	// The flooded district collapses outright: the test flood covers
	// downtown, so downtown-resident trips during the disaster are rare.
	downtownDuring := 0
	downtownBefore := 0
	people := make(map[int]Person, len(ds.People))
	for _, p := range ds.People {
		people[p.ID] = p
	}
	for _, tr := range ds.Trips {
		if people[tr.PersonID].HomeRegion != roadnet.DowntownRegion {
			continue
		}
		switch cfg.PhaseOf(tr.Depart) {
		case PhaseBefore:
			downtownBefore++
		case PhaseDuring:
			downtownDuring++
		}
	}
	if downtownBefore == 0 {
		t.Fatal("no pre-disaster downtown trips")
	}
	dtBeforeRate := float64(downtownBefore) / beforeDays
	dtDuringRate := float64(downtownDuring) / duringDays
	if dtDuringRate >= dtBeforeRate*0.2 {
		t.Errorf("flooded downtown trips did not collapse: before=%v/day during=%v/day", dtBeforeRate, dtDuringRate)
	}
}

func TestGenerateTripsAreRoutable(t *testing.T) {
	city, _, ds := genTestDataset(t)
	g := city.Graph
	for _, tr := range ds.Trips[:min(len(ds.Trips), 500)] {
		if len(tr.Segs) == 0 {
			t.Fatalf("trip with empty route: %+v", tr)
		}
		cur := tr.FromLM
		for _, sid := range tr.Segs {
			s := g.Segment(sid)
			if s.From != cur {
				t.Fatalf("trip route not contiguous: person %d", tr.PersonID)
			}
			cur = s.To
		}
		if cur != tr.ToLM {
			t.Fatalf("trip route does not end at destination: person %d", tr.PersonID)
		}
	}
}

func TestGenerateRescues(t *testing.T) {
	city, dis, ds := genTestDataset(t)
	if len(ds.Rescues) == 0 {
		t.Fatal("no rescues generated despite downtown flooding")
	}
	cfg := ds.Config
	seen := make(map[int]bool)
	for _, r := range ds.Rescues {
		home := ds.People[r.PersonID].Home
		if seen[r.PersonID] {
			t.Errorf("person %d rescued twice", r.PersonID)
		}
		seen[r.PersonID] = true
		if r.RequestTime.Before(cfg.DisasterStart) || !r.RequestTime.Before(cfg.DisasterEnd) {
			t.Errorf("rescue request at %v outside disaster window", r.RequestTime)
		}
		if !dis.InFloodZone(home, r.RequestTime) {
			t.Errorf("rescue request outside flood zone at %v", home)
		}
	}
	// Most rescues should be downtown (the flooded region).
	downtownCount := 0
	for _, r := range ds.Rescues {
		if city.RegionAt(ds.People[r.PersonID].Home) == roadnet.DowntownRegion {
			downtownCount++
		}
	}
	if float64(downtownCount) < 0.7*float64(len(ds.Rescues)) {
		t.Errorf("only %d/%d rescues downtown", downtownCount, len(ds.Rescues))
	}
}

func TestGenerateGPSCadence(t *testing.T) {
	_, _, ds := genTestDataset(t)
	cfg := ds.Config
	if n := ds.Traces.NumPeople(); n != cfg.NumPeople {
		t.Fatalf("traces cover %d people, want %d", n, cfg.NumPeople)
	}
	for i := 0; i < ds.Traces.NumPeople(); i++ {
		id := ds.Traces.ID(i)
		times, _ := ds.Traces.Samples(i)
		for k := 1; k < len(times); k++ {
			gap := time.Duration(times[k] - times[k-1])
			if gap < cfg.SampleMin || gap > cfg.SampleMax {
				t.Fatalf("person %d sample gap %v outside [%v, %v]", id, gap, cfg.SampleMin, cfg.SampleMax)
			}
		}
		// Expect roughly Days*24h / mean-interval samples.
		if len(times) < 24*cfg.Days/4 {
			t.Fatalf("person %d has only %d samples", id, len(times))
		}
	}
}

func TestGenerateGPSSamplesPlausible(t *testing.T) {
	city, _, ds := genTestDataset(t)
	box := city.Graph.BBox().Pad(3000)
	for i := 0; i < ds.Traces.NumPeople(); i++ {
		_, pos := ds.Traces.Samples(i)
		for _, p := range pos {
			if !p.Valid() {
				t.Fatalf("invalid GPS position %v", p)
			}
			if !box.Contains(p) {
				t.Fatalf("GPS point far outside the city: %v", p)
			}
		}
	}
}

func TestGenerateRescuedPersonVisitsHospital(t *testing.T) {
	city, _, ds := genTestDataset(t)
	if len(ds.Rescues) == 0 {
		t.Skip("no rescues in this seed")
	}
	// The historical rescue delivers the person to the hospital nearest
	// their home within the delivery delay bounds; they stay there.
	r := ds.Rescues[0]
	cfg := ds.Config
	hPos := city.Graph.Landmark(city.HospitalNearest(ds.People[r.PersonID].Home)).Pos
	from := r.RequestTime.Add(cfg.DeliverDelayMin).UnixNano()
	to := r.RequestTime.Add(cfg.DeliverDelayMax + cfg.HospitalStay).UnixNano()
	times, pos := ds.Traces.Samples(ds.Traces.IndexOf(r.PersonID))
	found := false
	for k, at := range times {
		if at > from && at < to && geo.FastDistance(pos[k], hPos) < 300 {
			found = true
			break
		}
	}
	if !found {
		t.Error("rescued person's trace never shows them at the hospital")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
