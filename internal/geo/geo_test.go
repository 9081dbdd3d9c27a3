package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// charlotte downtown, used as a realistic anchor in tests.
var charlotte = Point{Lat: 35.2271, Lon: -80.8431}

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Point
		want    float64 // meters
		tolFrac float64
	}{
		{
			name: "zero distance",
			a:    charlotte, b: charlotte,
			want: 0, tolFrac: 0,
		},
		{
			name: "one degree latitude",
			a:    Point{35, -80}, b: Point{36, -80},
			want: 111195, tolFrac: 0.001,
		},
		{
			name: "charlotte to raleigh",
			a:    charlotte, b: Point{35.7796, -78.6382},
			want: 209000, tolFrac: 0.01,
		},
		{
			name: "equator one degree longitude",
			a:    Point{0, 0}, b: Point{0, 1},
			want: 111195, tolFrac: 0.001,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Haversine(tt.a, tt.b)
			if math.Abs(got-tt.want) > tt.want*tt.tolFrac+1e-9 {
				t.Errorf("Haversine(%v, %v) = %v, want %v ± %.1f%%",
					tt.a, tt.b, got, tt.want, tt.tolFrac*100)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := Point{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastDistanceMatchesHaversineAtCityScale(t *testing.T) {
	// Points up to ~20 km apart near Charlotte.
	offsets := []struct{ dLat, dLon float64 }{
		{0.01, 0.01}, {0.05, -0.03}, {-0.1, 0.1}, {0.15, 0.0}, {0.0, 0.18},
	}
	for _, o := range offsets {
		b := Point{charlotte.Lat + o.dLat, charlotte.Lon + o.dLon}
		h := Haversine(charlotte, b)
		f := FastDistance(charlotte, b)
		if h == 0 {
			continue
		}
		if rel := math.Abs(h-f) / h; rel > 0.01 {
			t.Errorf("FastDistance off by %.2f%% for offset %+v (h=%v f=%v)", rel*100, o, h, f)
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(bearing, dist float64) bool {
		bearing = math.Mod(math.Abs(bearing), 360)
		dist = math.Mod(math.Abs(dist), 50000) // up to 50 km
		dst := Destination(charlotte, bearing, dist)
		got := Haversine(charlotte, dst)
		return math.Abs(got-dist) < 1.0 // within a meter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterpolate(t *testing.T) {
	a := Point{35, -81}
	b := Point{36, -80}
	if got := Interpolate(a, b, 0); got != a {
		t.Errorf("frac=0 => %v, want %v", got, a)
	}
	if got := Interpolate(a, b, 1); got != b {
		t.Errorf("frac=1 => %v, want %v", got, b)
	}
	mid := Interpolate(a, b, 0.5)
	if math.Abs(mid.Lat-35.5) > 1e-9 || math.Abs(mid.Lon+80.5) > 1e-9 {
		t.Errorf("frac=0.5 => %v, want (35.5, -80.5)", mid)
	}
	if got := Interpolate(a, b, -1); got != a {
		t.Errorf("frac<0 should clamp to a, got %v", got)
	}
	if got := Interpolate(a, b, 2); got != b {
		t.Errorf("frac>1 should clamp to b, got %v", got)
	}
}

func TestBBox(t *testing.T) {
	pts := []Point{{35.1, -81.0}, {35.9, -80.2}, {35.5, -80.7}}
	b := NewBBox(pts...)
	want := BBox{MinLat: 35.1, MinLon: -81.0, MaxLat: 35.9, MaxLon: -80.2}
	if b != want {
		t.Fatalf("NewBBox = %+v, want %+v", b, want)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	if b.Contains(Point{34.0, -80.5}) {
		t.Error("box should not contain point south of it")
	}
	c := b.Center()
	if math.Abs(c.Lat-35.5) > 1e-9 || math.Abs(c.Lon+80.6) > 1e-9 {
		t.Errorf("Center = %v", c)
	}
}

func TestBBoxPad(t *testing.T) {
	b := NewBBox(charlotte)
	padded := b.Pad(1000)
	// Corners should be ~sqrt(2) km from the center; sides 1 km away.
	north := Point{padded.MaxLat, charlotte.Lon}
	if d := Haversine(charlotte, north); math.Abs(d-1000) > 5 {
		t.Errorf("north pad distance = %v, want ~1000", d)
	}
	east := Point{charlotte.Lat, padded.MaxLon}
	if d := Haversine(charlotte, east); math.Abs(d-1000) > 5 {
		t.Errorf("east pad distance = %v, want ~1000", d)
	}
}

// toXY is the forward equirectangular projection that ToPoint inverts.
func toXY(pr *Projection, p Point) XY {
	return XY{
		X: deg2rad(p.Lon-pr.Origin.Lon) * math.Cos(deg2rad(pr.Origin.Lat)) * EarthRadiusMeters,
		Y: deg2rad(p.Lat-pr.Origin.Lat) * EarthRadiusMeters,
	}
}

func TestProjectionRoundTrip(t *testing.T) {
	pr := NewProjection(charlotte)
	f := func(dLat, dLon float64) bool {
		p := Point{
			Lat: charlotte.Lat + math.Mod(dLat, 0.3),
			Lon: charlotte.Lon + math.Mod(dLon, 0.3),
		}
		back := pr.ToPoint(toXY(pr, p))
		return math.Abs(back.Lat-p.Lat) < 1e-9 && math.Abs(back.Lon-p.Lon) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProjectionDistancePreserved(t *testing.T) {
	pr := NewProjection(charlotte)
	a := XY{X: -3000, Y: 2500}
	b := XY{X: 6000, Y: 8000}
	planar := math.Hypot(a.X-b.X, a.Y-b.Y)
	sphere := Haversine(pr.ToPoint(a), pr.ToPoint(b))
	if rel := math.Abs(planar-sphere) / sphere; rel > 0.005 {
		t.Errorf("projected distance off by %.3f%%", rel*100)
	}
}

func TestPointValid(t *testing.T) {
	tests := []struct {
		p    Point
		want bool
	}{
		{charlotte, true},
		{Point{91, 0}, false},
		{Point{-91, 0}, false},
		{Point{0, 181}, false},
		{Point{0, -181}, false},
		{Point{math.NaN(), 0}, false},
		{Point{0, math.NaN()}, false},
		{Point{90, 180}, true},
	}
	for _, tt := range tests {
		if got := tt.p.Valid(); got != tt.want {
			t.Errorf("Valid(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func BenchmarkHaversine(b *testing.B) {
	p2 := Point{35.30, -80.80}
	for i := 0; i < b.N; i++ {
		_ = Haversine(charlotte, p2)
	}
}

func BenchmarkFastDistance(b *testing.B) {
	p2 := Point{35.30, -80.80}
	for i := 0; i < b.N; i++ {
		_ = FastDistance(charlotte, p2)
	}
}
