package pop

// Regions is the region-ordered shard plan over a population: every
// person is assigned a region (the paper's council districts; 0 means
// unassigned), and Order lists dense person indices grouped by region,
// ascending index within each region. The prediction window pass walks
// Order in shard-sized ranges, so a shard's people share a district —
// the same flood cells, the same spatial-index neighborhoods — and the
// per-shard results merge in fixed range order, keeping outputs
// byte-identical for any worker count (the PR-5 contract).
type Regions struct {
	numRegions int
	order      []int32 // dense indices grouped by region
	starts     []int32 // region r occupies order[starts[r]:starts[r+1]]
}

// NewRegions builds the plan for n people. regionOf maps a dense person
// index to its region; values outside [1, numRegions] are grouped under
// region 0 (unassigned) and still predicted over — sharding never drops
// anybody.
func NewRegions(n, numRegions int, regionOf func(i int) int) *Regions {
	if numRegions < 0 {
		numRegions = 0
	}
	r := &Regions{
		numRegions: numRegions,
		order:      make([]int32, n),
		starts:     make([]int32, numRegions+2),
	}
	region := make([]int16, n)
	counts := make([]int32, numRegions+1)
	for i := 0; i < n; i++ {
		reg := regionOf(i)
		if reg < 1 || reg > numRegions {
			reg = 0
		}
		region[i] = int16(reg)
		counts[reg]++
	}
	next := make([]int32, numRegions+1)
	acc := int32(0)
	for reg := 0; reg <= numRegions; reg++ {
		r.starts[reg] = acc
		next[reg] = acc
		acc += counts[reg]
	}
	r.starts[numRegions+1] = acc
	for i := 0; i < n; i++ {
		reg := region[i]
		r.order[next[reg]] = int32(i)
		next[reg]++
	}
	return r
}

// At returns the dense person index at position k of the region order.
func (r *Regions) At(k int) int { return int(r.order[k]) }

// Shard is one contiguous range [Start, End) of the region order.
type Shard struct{ Start, End int }

// Shards cuts the region order into at most maxShards work units. Cuts
// respect region boundaries where possible (region-pure shards); a
// region larger than the per-shard budget is split into even chunks.
// The plan is a pure function of (population, maxShards) — workers only
// decide how many shards run at once, never where the cuts fall, and
// the merge walks shards in slice order, so results cannot depend on
// scheduling.
func (r *Regions) Shards(maxShards int) []Shard {
	n := len(r.order)
	if n == 0 {
		return nil
	}
	if maxShards < 1 {
		maxShards = 1
	}
	target := (n + maxShards - 1) / maxShards
	var out []Shard
	for reg := 0; reg <= r.numRegions; reg++ {
		lo, hi := int(r.starts[reg]), int(r.starts[reg+1])
		span := hi - lo
		if span == 0 {
			continue
		}
		chunks := (span + target - 1) / target
		per := (span + chunks - 1) / chunks
		for s := lo; s < hi; s += per {
			e := s + per
			if e > hi {
				e = hi
			}
			out = append(out, Shard{Start: s, End: e})
		}
	}
	return out
}
