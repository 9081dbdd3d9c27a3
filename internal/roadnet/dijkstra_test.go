package roadnet

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mobirescue/internal/geo"
)

// closedSet is a test cost model that closes an explicit set of segments
// and optionally slows the rest.
type closedSet struct {
	closed map[SegmentID]bool
	factor float64 // speed multiplier for open segments; 0 means 1
}

func (c closedSet) SegmentTime(s Segment) (float64, bool) {
	if c.closed[s.ID] {
		return 0, false
	}
	f := c.factor
	if f == 0 {
		f = 1
	}
	return s.FreeFlowTime() / f, true
}

func TestTreeOnChain(t *testing.T) {
	g, ids := buildLine(t, 5, 1000)
	r := NewRouter(g, nil)
	tree := r.Tree(ids[0])
	for i, id := range ids {
		want := float64(i) * 100 // 1000 m at 10 m/s per hop
		got := tree.TimeTo(id)
		if math.Abs(got-want) > 1.0 {
			t.Errorf("TimeTo(%d) = %v, want ~%v", i, got, want)
		}
	}
	path, err := tree.PathTo(ids[4])
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Errorf("path length = %d, want 4", len(path))
	}
	for i, sid := range path {
		s := g.Segment(sid)
		if s.From != ids[i] || s.To != ids[i+1] {
			t.Errorf("hop %d is %d->%d, want %d->%d", i, s.From, s.To, ids[i], ids[i+1])
		}
	}
}

func TestTreeUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddLandmark(geo.Point{Lat: 35, Lon: -80}, 0, 1)
	b := g.AddLandmark(geo.Point{Lat: 35.01, Lon: -80}, 0, 1)
	c := g.AddLandmark(geo.Point{Lat: 35.02, Lon: -80}, 0, 1)
	if _, err := g.AddSegment(a, b, 0, 10, ClassCollector); err != nil {
		t.Fatal(err)
	}
	// c is disconnected.
	r := NewRouter(g, nil)
	tree := r.Tree(a)
	if tree.Reachable(c) {
		t.Error("disconnected landmark reported reachable")
	}
	if _, err := tree.PathTo(c); !errors.Is(err, ErrNoPath) {
		t.Errorf("PathTo error = %v, want ErrNoPath", err)
	}
	if !math.IsInf(tree.TimeTo(LandmarkID(999)), 1) {
		t.Error("out-of-range landmark should be +Inf")
	}
}

func TestTreeRespectsClosures(t *testing.T) {
	g, ids := buildLine(t, 3, 1000)
	// Close the forward segment between ids[1] and ids[2].
	var fwd SegmentID = NoSegment
	for _, sid := range g.Out(ids[1]) {
		if g.Segment(sid).To == ids[2] {
			fwd = sid
		}
	}
	if fwd == NoSegment {
		t.Fatal("forward segment not found")
	}
	r := NewRouter(g, closedSet{closed: map[SegmentID]bool{fwd: true}})
	tree := r.Tree(ids[0])
	if tree.Reachable(ids[2]) {
		t.Error("route through a closed segment")
	}
	if !tree.Reachable(ids[1]) {
		t.Error("open prefix should stay reachable")
	}
}

func TestSlowdownScalesTimes(t *testing.T) {
	g, ids := buildLine(t, 3, 1000)
	fast := NewRouter(g, nil).Tree(ids[0]).TimeTo(ids[2])
	slow := NewRouter(g, closedSet{factor: 0.5}).Tree(ids[0]).TimeTo(ids[2])
	if math.Abs(slow-2*fast) > 1e-6 {
		t.Errorf("half speed should double time: fast=%v slow=%v", fast, slow)
	}
}

func TestRouteToSegmentEnd(t *testing.T) {
	g, ids := buildLine(t, 4, 1000)
	r := NewRouter(g, nil)
	// Vehicle halfway along segment 0->1, target = segment 2->3.
	var s01, s23 SegmentID = NoSegment, NoSegment
	g.Segments(func(s Segment) {
		if s.From == ids[0] && s.To == ids[1] {
			s01 = s.ID
		}
		if s.From == ids[2] && s.To == ids[3] {
			s23 = s.ID
		}
	})
	pos := Position{Seg: s01, Offset: 500}
	rt, err := r.RouteToSegmentEnd(pos, s23)
	if err != nil {
		t.Fatal(err)
	}
	// Remaining 500 m + 1000 m + 1000 m = 2500 m at 10 m/s = 250 s.
	if math.Abs(rt.Time-250) > 2 {
		t.Errorf("Time = %v, want ~250", rt.Time)
	}
	if rt.Segs[0] != s01 || rt.Segs[len(rt.Segs)-1] != s23 {
		t.Errorf("route endpoints wrong: %+v", rt.Segs)
	}
	if len(rt.Segs) != 3 {
		t.Errorf("route has %d segments, want 3", len(rt.Segs))
	}
}

func TestRouteToSameSegment(t *testing.T) {
	g, ids := buildLine(t, 2, 1000)
	r := NewRouter(g, nil)
	sid := g.Out(ids[0])[0]
	rt, err := r.RouteToSegmentEnd(Position{Seg: sid, Offset: 800}, sid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rt.Time-20) > 0.5 { // 200 m at 10 m/s
		t.Errorf("Time = %v, want ~20", rt.Time)
	}
	if len(rt.Segs) != 1 {
		t.Errorf("Segs = %v", rt.Segs)
	}
}

func TestRouteToClosedTarget(t *testing.T) {
	g, ids := buildLine(t, 3, 1000)
	var s12 SegmentID = NoSegment
	g.Segments(func(s Segment) {
		if s.From == ids[1] && s.To == ids[2] {
			s12 = s.ID
		}
	})
	r := NewRouter(g, closedSet{closed: map[SegmentID]bool{s12: true}})
	pos, err := g.AtLandmark(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RouteToSegmentEnd(pos, s12); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestRouteInvalidInputs(t *testing.T) {
	g, ids := buildLine(t, 2, 500)
	r := NewRouter(g, nil)
	sid := g.Out(ids[0])[0]
	if _, err := r.RouteToSegmentEnd(Position{Seg: NoSegment}, sid); err == nil {
		t.Error("invalid position should error")
	}
	if _, err := r.RouteToSegmentEnd(Position{Seg: sid}, SegmentID(999)); err == nil {
		t.Error("invalid target should error")
	}
}

// bellmanFord computes single-source shortest times by relaxation, used
// as an oracle for Dijkstra.
func bellmanFord(g *Graph, cost CostModel, src LandmarkID) []float64 {
	n := g.NumLandmarks()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		g.Segments(func(s Segment) {
			w, open := cost.SegmentTime(s)
			if !open {
				return
			}
			if d := dist[s.From] + w; d < dist[s.To] {
				dist[s.To] = d
				changed = true
			}
		})
		if !changed {
			break
		}
	}
	return dist
}

// randomGraph builds a random connected-ish graph for the oracle test.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddLandmark(geo.Point{
			Lat: 35 + rng.Float64()*0.3,
			Lon: -81 + rng.Float64()*0.3,
		}, 200, 1+rng.Intn(7))
	}
	// Random edges; roughly 3n of them.
	for e := 0; e < 3*n; e++ {
		a := LandmarkID(rng.Intn(n))
		b := LandmarkID(rng.Intn(n))
		if a == b {
			continue
		}
		speed := 5 + rng.Float64()*25
		length := 100 + rng.Float64()*3000
		_, _ = g.AddSegment(a, b, length, speed, ClassCollector)
	}
	return g
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(30)
		g := randomGraph(rng, n)
		var cost CostModel = FreeFlow{}
		if trial%2 == 1 {
			closed := make(map[SegmentID]bool)
			g.Segments(func(s Segment) {
				if rng.Float64() < 0.2 {
					closed[s.ID] = true
				}
			})
			cost = closedSet{closed: closed}
		}
		src := LandmarkID(rng.Intn(n))
		tree := NewRouter(g, cost).Tree(src)
		oracle := bellmanFord(g, cost, src)
		for lm := 0; lm < n; lm++ {
			got := tree.TimeTo(LandmarkID(lm))
			want := oracle[lm]
			if math.IsInf(got, 1) != math.IsInf(want, 1) {
				t.Fatalf("trial %d: reachability mismatch at %d: dijkstra=%v bf=%v", trial, lm, got, want)
			}
			if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("trial %d: distance mismatch at %d: dijkstra=%v bf=%v", trial, lm, got, want)
			}
		}
	}
}

func TestPathCostMatchesTreeDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 40)
	r := NewRouter(g, nil)
	src := LandmarkID(0)
	tree := r.Tree(src)
	for lm := 0; lm < g.NumLandmarks(); lm++ {
		id := LandmarkID(lm)
		if !tree.Reachable(id) {
			continue
		}
		path, err := tree.PathTo(id)
		if err != nil {
			t.Fatalf("PathTo(%d): %v", lm, err)
		}
		sum := 0.0
		cur := src
		for _, sid := range path {
			s := g.Segment(sid)
			if s.From != cur {
				t.Fatalf("path to %d not contiguous at segment %d", lm, sid)
			}
			sum += s.FreeFlowTime()
			cur = s.To
		}
		if cur != id {
			t.Fatalf("path to %d ends at %d", lm, cur)
		}
		if math.Abs(sum-tree.TimeTo(id)) > 1e-6*math.Max(1, sum) {
			t.Fatalf("path cost %v != tree distance %v for landmark %d", sum, tree.TimeTo(id), lm)
		}
	}
}

func TestTreeFromPosition(t *testing.T) {
	g, ids := buildLine(t, 3, 1000)
	r := NewRouter(g, nil)
	sid := g.Out(ids[0])[0] // 0 -> 1
	tree, head := r.TreeFromPosition(Position{Seg: sid, Offset: 250})
	if math.Abs(head-75) > 0.5 { // 750 m remaining at 10 m/s
		t.Errorf("head = %v, want ~75", head)
	}
	if tree.Source != ids[1] {
		t.Errorf("tree source = %v, want %v", tree.Source, ids[1])
	}
	total := head + tree.TimeTo(ids[2])
	if math.Abs(total-175) > 1 {
		t.Errorf("position-to-landmark time = %v, want ~175", total)
	}
}

func BenchmarkDijkstraCityGraph(b *testing.B) {
	city, err := GenerateCity(DefaultGenConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := NewRouter(city.Graph, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Tree(LandmarkID(i % city.Graph.NumLandmarks()))
	}
}
