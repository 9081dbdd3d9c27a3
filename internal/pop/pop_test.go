package pop

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"mobirescue/internal/geo"
)

// naiveTrack mirrors the seed pipeline's per-person track: a slice of
// (time, pos) with the last-at-or-before lookup.
type naiveTrack struct {
	times []time.Time
	pos   []geo.Point
}

func (tr *naiveTrack) posAt(t time.Time) geo.Point {
	idx := sort.Search(len(tr.times), func(i int) bool { return tr.times[i].After(t) }) - 1
	if idx < 0 {
		idx = 0
	}
	return tr.pos[idx]
}

func buildRandom(t *testing.T, seed int64, people int) (*Store, map[int]*naiveTrack) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	ref := make(map[int]*naiveTrack)
	base := time.Date(2018, 9, 10, 0, 0, 0, 0, time.UTC)
	for id := 0; id < people; id++ {
		n := 1 + rng.Intn(20)
		tr := &naiveTrack{}
		at := base.Add(time.Duration(rng.Intn(3600)) * time.Second)
		for k := 0; k < n; k++ {
			p := geo.Point{Lat: 35 + rng.Float64(), Lon: -81 + rng.Float64()}
			b.Add(id, at, p)
			tr.times = append(tr.times, at)
			tr.pos = append(tr.pos, p)
			at = at.Add(time.Duration(1+rng.Intn(7200)) * time.Second)
		}
		ref[id] = tr
	}
	s, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s, ref
}

// TestStoreMatchesNaiveTracks pins the CSR lookup to the seed
// pipeline's per-track posAt semantics: last sample at or before t,
// clamped to the first sample, with exact boundary behavior at sample
// instants.
func TestStoreMatchesNaiveTracks(t *testing.T) {
	s, ref := buildRandom(t, 7, 200)
	if !s.dense {
		t.Fatalf("sequential IDs should be dense")
	}
	rng := rand.New(rand.NewSource(99))
	base := time.Date(2018, 9, 9, 0, 0, 0, 0, time.UTC)
	for i := 0; i < s.NumPeople(); i++ {
		id := s.ID(i)
		tr := ref[id]
		// Random probes plus exact sample instants and one-nanosecond
		// boundaries around them.
		probes := []time.Time{base, base.Add(90 * 24 * time.Hour)}
		for k := 0; k < 20; k++ {
			probes = append(probes, base.Add(time.Duration(rng.Intn(20*24*3600))*time.Second))
		}
		for _, st := range tr.times {
			probes = append(probes, st, st.Add(-time.Nanosecond), st.Add(time.Nanosecond))
		}
		for _, p := range probes {
			want := tr.posAt(p)
			got := s.PosAt(i, p.UnixNano())
			if got != want {
				t.Fatalf("person %d at %v: got %v want %v", id, p, got, want)
			}
		}
	}
}

func TestStoreIndexOf(t *testing.T) {
	b := NewBuilder()
	at := time.Unix(1000, 0)
	for _, id := range []int{10, 30, 40} { // sparse
		b.Add(id, at, geo.Point{Lat: float64(id)})
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.dense {
		t.Fatalf("sparse IDs reported dense")
	}
	wantIDs := []int{10, 30, 40}
	for i, id := range wantIDs {
		if s.ID(i) != id {
			t.Fatalf("ID(%d) = %d, want %d", i, s.ID(i), id)
		}
		if got := s.IndexOf(id); got != i {
			t.Fatalf("IndexOf(%d) = %d, want %d", id, got, i)
		}
	}
	for _, id := range []int{-1, 0, 11, 50} {
		if got := s.IndexOf(id); got != -1 {
			t.Fatalf("IndexOf(%d) = %d, want -1", id, got)
		}
	}

	dense, _ := buildRandom(t, 3, 50)
	for i := 0; i < dense.NumPeople(); i++ {
		if dense.IndexOf(dense.ID(i)) != i {
			t.Fatalf("dense IndexOf mismatch at %d", i)
		}
	}
	if dense.IndexOf(-1) != -1 || dense.IndexOf(dense.NumPeople()) != -1 {
		t.Fatalf("dense IndexOf out-of-range should be -1")
	}
}

func TestBuilderEmpty(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatalf("empty builder should error")
	}
}

// TestBuilderRejectsDescendingIDs pins the appender's one ordering
// rule: a person ID below the last one added (a new person out of
// order, or an earlier person resumed after another) is an error.
func TestBuilderRejectsDescendingIDs(t *testing.T) {
	at := time.Unix(1000, 0)
	for _, ids := range [][]int{{40, 10}, {1, 2, 1}} {
		b := NewBuilder()
		for _, id := range ids {
			b.Add(id, at, geo.Point{Lat: float64(id)})
		}
		if _, err := b.Build(); err == nil {
			t.Errorf("IDs %v accepted", ids)
		}
	}
}

// TestStoreSamples pins the per-person columns DetectDeliveries walks:
// each person's samples in the order added, and their total.
func TestStoreSamples(t *testing.T) {
	s, ref := buildRandom(t, 5, 30)
	total := 0
	for i := 0; i < s.NumPeople(); i++ {
		times, pos := s.Samples(i)
		tr := ref[s.ID(i)]
		if len(times) != len(tr.times) || len(pos) != len(tr.pos) {
			t.Fatalf("person %d: %d/%d samples, want %d", i, len(times), len(pos), len(tr.times))
		}
		for k := range times {
			if times[k] != tr.times[k].UnixNano() || pos[k] != tr.pos[k] {
				t.Fatalf("person %d sample %d differs", i, k)
			}
		}
		total += len(times)
	}
	if s.NumSamples() != total {
		t.Fatalf("NumSamples = %d, want %d", s.NumSamples(), total)
	}
}

// TestPosAtZeroAlloc pins the hot lookup at zero allocations.
func TestPosAtZeroAlloc(t *testing.T) {
	s, _ := buildRandom(t, 11, 50)
	at := time.Date(2018, 9, 12, 6, 0, 0, 0, time.UTC).UnixNano()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < s.NumPeople(); i++ {
			_ = s.PosAt(i, at)
		}
	})
	if allocs != 0 {
		t.Fatalf("PosAt allocates %v per sweep, want 0", allocs)
	}
}
