package weather

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mobirescue/internal/geo"
)

func fixtureStorm() *Hurricane {
	start := time.Date(2018, 9, 12, 0, 0, 0, 0, time.UTC)
	return FlorencePreset(start, geo.Point{Lat: 35.2271, Lon: -80.8431})
}

func fixtureElev(p geo.Point) float64 { return 200 + 1500*(p.Lat-35.2) }

// TestFactorIndexMatchesNaive is the golden equivalence contract: at
// every 5-minute window boundary across the impact window (plus the
// quiet shoulders before and after), the indexed factors must be
// byte-identical to the naive trailing-scan path — for points near the
// track, far from it, and exactly on it.
func TestFactorIndexMatchesNaive(t *testing.T) {
	h := fixtureStorm()
	const lookback = 24 * time.Hour
	fi := NewFactorIndex(h, fixtureElev, lookback)
	city := geo.Point{Lat: 35.2271, Lon: -80.8431}
	points := []geo.Point{
		city,
		geo.Destination(city, 120, 12000), // on the initial track center
		geo.Destination(city, 45, 3000),
		geo.Destination(city, 270, 40000), // far field
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		points = append(points, geo.Destination(city, rng.Float64()*360, rng.Float64()*25000))
	}
	from := h.Start.Add(-6 * time.Hour)
	to := h.End.Add(6 * time.Hour)
	checked := 0
	for at := from; !at.After(to); at = at.Add(5 * time.Minute) {
		p := points[checked%len(points)]
		got := fi.WindowFactors(p, at)
		want := WindowFactors(h, fixtureElev, p, at, lookback)
		if got != want {
			t.Fatalf("t=%v p=%v: index %+v != naive %+v", at, p, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no window boundaries checked")
	}
	// Off-grid instants (not multiples of 5 minutes) must match too.
	for i := 0; i < 200; i++ {
		at := from.Add(time.Duration(rng.Int63n(int64(to.Sub(from)))))
		p := points[rng.Intn(len(points))]
		if got, want := fi.WindowFactors(p, at), WindowFactors(h, fixtureElev, p, at, lookback); got != want {
			t.Fatalf("off-grid t=%v p=%v: index %+v != naive %+v", at, p, got, want)
		}
	}
}

// TestSeriesMatchesNaive pins the per-window kernel: one series resolved
// per 5-minute boundary, evaluated at every point, must equal the naive
// trailing scan with !=. The span covers windows whose samples are all
// zero (before Start, and a lookback past End), windows straddling
// Start or End, and windows wholly inside the impact window.
func TestSeriesMatchesNaive(t *testing.T) {
	h := fixtureStorm()
	const lookback = 24 * time.Hour
	fi := NewFactorIndex(h, fixtureElev, lookback)
	city := geo.Point{Lat: 35.2271, Lon: -80.8431}
	points := []geo.Point{
		city,
		h.TrackStart, // exactly on the initial storm center
		geo.Destination(city, 270, 40000),
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		points = append(points, geo.Destination(city, rng.Float64()*360, rng.Float64()*25000))
	}
	var s StormSeries
	allZero, straddle, full := 0, 0, 0
	for at := h.Start.Add(-6 * time.Hour); !at.After(h.End.Add(lookback + 6*time.Hour)); at = at.Add(5 * time.Minute) {
		fi.SeriesInto(&s, at)
		switch {
		case len(s.live) == 0:
			allZero++
		case len(s.live) < s.n:
			straddle++
		default:
			full++
		}
		for _, p := range points {
			want := WindowFactors(h, fixtureElev, p, at, lookback)
			precip, wind := s.At(p)
			if precip != want.Precip || wind != want.Wind {
				t.Fatalf("t=%v p=%v: series (%v, %v) != naive (%v, %v)", at, p, precip, wind, want.Precip, want.Wind)
			}
		}
	}
	if allZero == 0 || straddle == 0 || full == 0 {
		t.Fatalf("span missed a regime: %d all-zero, %d straddling, %d full windows", allZero, straddle, full)
	}
}

// TestSeriesAtZeroAlloc pins the per-person step of the prediction
// loop: evaluating a point against a resolved series allocates nothing.
func TestSeriesAtZeroAlloc(t *testing.T) {
	h := fixtureStorm()
	fi := NewFactorIndex(h, fixtureElev, 24*time.Hour)
	var s StormSeries
	fi.SeriesInto(&s, h.Start.Add(30*time.Hour))
	p := geo.Destination(geo.Point{Lat: 35.2271, Lon: -80.8431}, 100, 8000)
	if n := testing.AllocsPerRun(1000, func() { s.At(p) }); n != 0 {
		t.Fatalf("StormSeries.At allocates %v/op, want 0", n)
	}
}

// TestFactorIndexFallback pins the naive fallback for non-Hurricane
// fields and non-positive lookbacks, and the nil elevation oracle, for
// both a resolved series and single-point queries.
func TestFactorIndexFallback(t *testing.T) {
	p := geo.Point{Lat: 35.2, Lon: -80.8}
	at := time.Date(2018, 9, 13, 12, 0, 0, 0, time.UTC)
	h := fixtureStorm()
	cases := []struct {
		name     string
		field    Field
		elev     func(geo.Point) float64
		lookback time.Duration
	}{
		// Calm is not a *Hurricane: the index must take the generic path.
		{"calm", Calm{}, fixtureElev, 24 * time.Hour},
		// Zero lookback degrades to instantaneous factors.
		{"zero lookback", h, fixtureElev, 0},
		{"nil elev", h, nil, 24 * time.Hour},
	}
	for _, c := range cases {
		fi := NewFactorIndex(c.field, c.elev, c.lookback)
		want := WindowFactors(c.field, c.elev, p, at, c.lookback)
		if got := fi.WindowFactors(p, at); got != want {
			t.Fatalf("%s: index %+v != naive %+v", c.name, got, want)
		}
		var s StormSeries
		fi.SeriesInto(&s, at)
		if precip, wind := s.At(p); precip != want.Precip || wind != want.Wind {
			t.Fatalf("%s: series (%v, %v) != naive %+v", c.name, precip, wind, want)
		}
	}
	if got, want := NewFactorIndex(h, fixtureElev, 0).WindowFactors(p, at), FactorsAt(h, fixtureElev, p, at); got != want {
		t.Fatalf("zero-lookback: %+v != instantaneous %+v", got, want)
	}
}

// TestFactorsInto pins the zero-alloc vector fill against
// Factors.Vector.
func TestFactorsInto(t *testing.T) {
	h := fixtureStorm()
	fi := NewFactorIndex(h, fixtureElev, 24*time.Hour)
	p := geo.Destination(geo.Point{Lat: 35.2271, Lon: -80.8431}, 100, 8000)
	at := h.Start.Add(30 * time.Hour)
	var vec [3]float64
	fi.FactorsInto(vec[:], p, at)
	want := fi.WindowFactors(p, at).Vector()
	for i := range want {
		if vec[i] != want[i] {
			t.Fatalf("FactorsInto[%d] = %v, want %v", i, vec[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { fi.FactorsInto(vec[:], p, at) }); n != 0 {
		t.Fatalf("FactorsInto allocates %v/op on a warm memo, want 0", n)
	}
}

// TestFactorIndexConcurrent hammers the memo from many goroutines under
// the race detector and checks every result against the naive oracle.
func TestFactorIndexConcurrent(t *testing.T) {
	h := fixtureStorm()
	const lookback = 24 * time.Hour
	fi := NewFactorIndex(h, fixtureElev, lookback)
	city := geo.Point{Lat: 35.2271, Lon: -80.8431}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				at := h.Start.Add(time.Duration(rng.Intn(72)) * time.Hour)
				p := geo.Destination(city, rng.Float64()*360, rng.Float64()*20000)
				if got, want := fi.WindowFactors(p, at), WindowFactors(h, fixtureElev, p, at, lookback); got != want {
					select {
					case errs <- "concurrent mismatch":
					default:
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestFactorIndexBounded verifies the memo resets instead of growing
// without bound.
func TestFactorIndexBounded(t *testing.T) {
	h := fixtureStorm()
	fi := NewFactorIndex(h, nil, 24*time.Hour)
	fi.maxSamples = 64
	p := geo.Point{Lat: 35.2, Lon: -80.8}
	for i := 0; i < 1000; i++ {
		fi.WindowFactors(p, h.Start.Add(time.Duration(i)*time.Minute))
	}
	fi.mu.Lock()
	n := len(fi.samples)
	fi.mu.Unlock()
	if n > 64+25 {
		t.Fatalf("memo grew to %d entries despite cap 64", n)
	}
}

// BenchmarkWindowFactors compares the naive trailing scan with the
// indexed storm series on a warm memo (the prediction-loop regime:
// thousands of people sharing each window's samples).
func BenchmarkWindowFactors(b *testing.B) {
	h := fixtureStorm()
	p := geo.Destination(geo.Point{Lat: 35.2271, Lon: -80.8431}, 100, 8000)
	at := h.Start.Add(30 * time.Hour)
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			WindowFactors(h, fixtureElev, p, at, 24*time.Hour)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		fi := NewFactorIndex(h, fixtureElev, 24*time.Hour)
		fi.WindowFactors(p, at)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fi.WindowFactors(p, at)
		}
	})
	b.Run("series", func(b *testing.B) {
		fi := NewFactorIndex(h, fixtureElev, 24*time.Hour)
		var s StormSeries
		fi.SeriesInto(&s, at)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.At(p)
		}
	})
}
