// Package pop is the metro-scale population data model: a columnar
// (struct-of-arrays) store of per-person GPS trajectories behind the
// Source interface the prediction stage reads positions through.
//
// The seed pipeline keeps one Go object per person and one slice per
// trajectory — fine at the paper's 8,590 people, hostile at a million:
// pointer-chasing per person, a map lookup per ID, and O(people)
// allocator pressure every window. Store flattens everything into a
// handful of parallel arrays (CSR layout for trajectories, dense
// indices for IDs), so the per-window hot loop walks contiguous memory
// and allocates nothing in steady state.
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
// are kept sorted ascending; when they happen to be dense (ids[i] == i,
// which the synthetic population generator guarantees) IndexOf is a
// bounds check instead of a search.
type Store struct {
	ids   []int
	dense bool
	off   []int64
	times []int64 // UnixNano per sample
	pos   []geo.Point
}

var _ Source = (*Store)(nil)

// Builder accumulates samples grouped by person ID. Per-person sample
// order is preserved exactly as added (callers add time-ordered
// samples); person order is normalized to ascending ID at Build.
type Builder struct {
	idx   map[int]int // person ID -> position in people
	ppl   []builderPerson
	count int
}

type builderPerson struct {
	id    int
	times []int64
	pos   []geo.Point
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{idx: make(map[int]int)}
}

// Add appends one sample to a person's trajectory.
func (b *Builder) Add(personID int, t time.Time, p geo.Point) {
	i, ok := b.idx[personID]
	if !ok {
		i = len(b.ppl)
		b.idx[personID] = i
		b.ppl = append(b.ppl, builderPerson{id: personID})
	}
	b.ppl[i].times = append(b.ppl[i].times, t.UnixNano())
	b.ppl[i].pos = append(b.ppl[i].pos, p)
	b.count++
}

// Build flattens the accumulated samples into a Store. It returns an
// error when no samples were added.
func (b *Builder) Build() (*Store, error) {
	if len(b.ppl) == 0 {
		return nil, fmt.Errorf("pop: no samples")
	}
	ppl := b.ppl
	sort.Slice(ppl, func(i, j int) bool { return ppl[i].id < ppl[j].id })
	s := &Store{
		ids:   make([]int, len(ppl)),
		off:   make([]int64, len(ppl)+1),
		times: make([]int64, 0, b.count),
		pos:   make([]geo.Point, 0, b.count),
	}
	s.dense = true
	for i, p := range ppl {
		s.ids[i] = p.id
		if p.id != i {
			s.dense = false
		}
		s.off[i] = int64(len(s.times))
		s.times = append(s.times, p.times...)
		s.pos = append(s.pos, p.pos...)
	}
	s.off[len(ppl)] = int64(len(s.times))
	return s, nil
}

// NumPeople implements Source.
func (s *Store) NumPeople() int { return len(s.ids) }

// ID returns the external person ID of dense index i.
func (s *Store) ID(i int) int { return s.ids[i] }

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
