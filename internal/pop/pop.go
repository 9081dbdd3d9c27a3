// Package pop is the population data model: a columnar
// (struct-of-arrays) store of per-person GPS trajectories behind the
// Source interface the prediction stage reads positions through.
//
// Store is the dataset's only trace format. mobility.Generate appends
// each person's samples to a Builder in person order, and both the
// hospital-stay stage (mobility.DetectDeliveries) and prediction read
// the one Store it builds. A handful of parallel arrays (CSR layout for
// trajectories, dense indices for IDs) keep the per-window hot loop on
// contiguous memory, with no map lookup and no allocation in steady
// state.
//
// Store is one implementation of Source — the interface the prediction
// provider consumes. mobility.Streamer is the other: it synthesizes
// positions window-by-window from seeded generators, keeping memory
// O(people) instead of O(people x windows).
package pop

import (
	"fmt"
	"sort"
	"time"

	"mobirescue/internal/geo"
)

// Source yields per-person positions for the prediction stage. i is a
// dense index in [0, NumPeople()); implementations must be safe for
// concurrent PosAt calls, across people and instants (the sharded
// window pass partitions indices across goroutines, and concurrent
// callers may compute different windows at once).
type Source interface {
	// NumPeople returns the population size.
	NumPeople() int
	// IndexOf returns the dense index of an external person ID, or -1.
	IndexOf(id int) int
	// PosAt returns person i's position at the given instant
	// (UnixNano). For trace-backed stores this is the last observed
	// sample at or before the instant (clamped to the first sample).
	PosAt(i int, unixNano int64) geo.Point
}

// Store is an immutable columnar trajectory store: person i's samples
// are times[off[i]:off[i+1]] / pos[off[i]:off[i+1]], time-ordered. IDs
// ascend; when they happen to be dense (ids[i] == i, which the
// synthetic population generator guarantees) IndexOf is a bounds check
// instead of a search.
type Store struct {
	ids   []int
	dense bool
	off   []int64
	times []int64 // UnixNano per sample
	pos   []geo.Point
}

var _ Source = (*Store)(nil)

// Builder appends samples in person order: people are added in
// ascending ID order, each person's samples consecutively and
// time-ordered, which is how mobility.Generate emits them. A sample for
// a person other than the last one added starts that person's
// trajectory.
type Builder struct {
	s Store
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Add appends one sample to a person's trajectory.
func (b *Builder) Add(personID int, t time.Time, p geo.Point) {
	s := &b.s
	if n := len(s.ids); n == 0 || s.ids[n-1] != personID {
		s.ids = append(s.ids, personID)
		s.off = append(s.off, int64(len(s.times)))
	}
	s.times = append(s.times, t.UnixNano())
	s.pos = append(s.pos, p)
}

// Build hands the appended samples to a Store and leaves the builder
// empty. It returns an error when no samples were added or when a
// person ID descends.
func (b *Builder) Build() (*Store, error) {
	s := b.s
	b.s = Store{}
	if len(s.ids) == 0 {
		return nil, fmt.Errorf("pop: no samples")
	}
	s.dense = true
	for i, id := range s.ids {
		if i > 0 && id < s.ids[i-1] {
			return nil, fmt.Errorf("pop: person %d added after person %d; IDs must ascend", id, s.ids[i-1])
		}
		if id != i {
			s.dense = false
		}
	}
	s.off = append(s.off, int64(len(s.times)))
	return &s, nil
}

// NumPeople implements Source.
func (s *Store) NumPeople() int { return len(s.ids) }

// ID returns the external person ID of dense index i.
func (s *Store) ID(i int) int { return s.ids[i] }

// NumSamples returns the number of samples over all people.
func (s *Store) NumSamples() int { return len(s.times) }

// Samples returns person i's samples, time-ordered: their instants
// (UnixNano) and positions. The slices share the store's memory and
// must not be modified.
func (s *Store) Samples(i int) (times []int64, pos []geo.Point) {
	lo, hi := s.off[i], s.off[i+1]
	return s.times[lo:hi:hi], s.pos[lo:hi:hi]
}

// IndexOf implements Source: O(1) when IDs are dense, binary search
// otherwise — never a map, so lookup memory is O(1).
func (s *Store) IndexOf(id int) int {
	if s.dense {
		if id < 0 || id >= len(s.ids) {
			return -1
		}
		return id
	}
	i := sort.SearchInts(s.ids, id)
	if i < len(s.ids) && s.ids[i] == id {
		return i
	}
	return -1
}

// PosAt implements Source: the last sample at or before the instant,
// clamped to the first sample — the exact semantics of the seed
// pipeline's per-track posAt, so swapping the layout cannot change a
// single prediction.
func (s *Store) PosAt(i int, unixNano int64) geo.Point {
	lo, hi := s.off[i], s.off[i+1]
	t := s.times[lo:hi]
	// sort.Search over the person's slice: first sample strictly after
	// the instant, minus one.
	idx := sort.Search(len(t), func(k int) bool { return t[k] > unixNano }) - 1
	if idx < 0 {
		idx = 0
	}
	return s.pos[lo+int64(idx)]
}
