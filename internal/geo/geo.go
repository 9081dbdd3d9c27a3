// Package geo provides geographic primitives used throughout MobiRescue:
// latitude/longitude points, great-circle and fast planar distances,
// bounding boxes, and a local equirectangular projection that maps
// metric coordinates to geographic ones.
//
// All distances are in meters, all angles in degrees unless stated
// otherwise.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by all spherical
// computations in this package.
const EarthRadiusMeters = 6371000.0

// Point is a geographic position in degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Valid reports whether the point is a plausible geographic coordinate.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 &&
		p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Haversine returns the great-circle distance in meters between a and b.
func Haversine(a, b Point) float64 {
	lat1, lon1 := deg2rad(a.Lat), deg2rad(a.Lon)
	lat2, lon2 := deg2rad(b.Lat), deg2rad(b.Lon)
	dLat, dLon := lat2-lat1, lon2-lon1
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// FastDistance returns an equirectangular approximation of the distance
// in meters between a and b. It is accurate to well under 1% for
// city-scale separations and is several times faster than Haversine.
func FastDistance(a, b Point) float64 {
	x := deg2rad(b.Lon-a.Lon) * math.Cos(deg2rad((a.Lat+b.Lat)/2))
	y := deg2rad(b.Lat - a.Lat)
	return EarthRadiusMeters * math.Sqrt(x*x+y*y)
}

// Destination returns the point reached by traveling dist meters from p
// along the given bearing in degrees.
func Destination(p Point, bearingDeg, dist float64) Point {
	lat1 := deg2rad(p.Lat)
	lon1 := deg2rad(p.Lon)
	br := deg2rad(bearingDeg)
	ang := dist / EarthRadiusMeters
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ang) + math.Cos(lat1)*math.Sin(ang)*math.Cos(br))
	lon2 := lon1 + math.Atan2(
		math.Sin(br)*math.Sin(ang)*math.Cos(lat1),
		math.Cos(ang)-math.Sin(lat1)*math.Sin(lat2),
	)
	return Point{Lat: rad2deg(lat2), Lon: normalizeLon(rad2deg(lon2))}
}

func normalizeLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}

// Interpolate returns the point a fraction frac (0..1) of the way from a
// to b along the straight chord in projected space. It is intended for
// city-scale segments where the chord and the great circle coincide for
// practical purposes.
func Interpolate(a, b Point, frac float64) Point {
	if frac <= 0 {
		return a
	}
	if frac >= 1 {
		return b
	}
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*frac,
		Lon: a.Lon + (b.Lon-a.Lon)*frac,
	}
}

// BBox is a geographic bounding box.
type BBox struct {
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
}

// NewBBox returns the smallest box containing all pts. The zero BBox is
// returned when pts is empty.
func NewBBox(pts ...Point) BBox {
	if len(pts) == 0 {
		return BBox{}
	}
	b := BBox{
		MinLat: pts[0].Lat, MaxLat: pts[0].Lat,
		MinLon: pts[0].Lon, MaxLon: pts[0].Lon,
	}
	for _, p := range pts[1:] {
		b = b.Extend(p)
	}
	return b
}

// Extend returns a copy of b grown to include p.
func (b BBox) Extend(p Point) BBox {
	if p.Lat < b.MinLat {
		b.MinLat = p.Lat
	}
	if p.Lat > b.MaxLat {
		b.MaxLat = p.Lat
	}
	if p.Lon < b.MinLon {
		b.MinLon = p.Lon
	}
	if p.Lon > b.MaxLon {
		b.MaxLon = p.Lon
	}
	return b
}

// Contains reports whether p lies inside the box (inclusive).
func (b BBox) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box center.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Pad returns a copy of b expanded by meters on every side.
func (b BBox) Pad(meters float64) BBox {
	dLat := rad2deg(meters / EarthRadiusMeters)
	dLon := rad2deg(meters / (EarthRadiusMeters * math.Cos(deg2rad(b.Center().Lat))))
	return BBox{
		MinLat: b.MinLat - dLat, MaxLat: b.MaxLat + dLat,
		MinLon: b.MinLon - dLon, MaxLon: b.MaxLon + dLon,
	}
}

// XY is a planar metric coordinate produced by a Projection.
type XY struct {
	X float64 // meters east of the projection origin
	Y float64 // meters north of the projection origin
}

// Projection converts between geographic and local planar coordinates
// using an equirectangular projection centered on Origin. It is accurate
// for city-scale extents (tens of kilometers).
type Projection struct {
	Origin Point
	cosLat float64
}

// NewProjection returns a Projection centered at origin.
func NewProjection(origin Point) *Projection {
	return &Projection{Origin: origin, cosLat: math.Cos(deg2rad(origin.Lat))}
}

// ToPoint maps local planar meters back to a geographic point.
func (pr *Projection) ToPoint(xy XY) Point {
	return Point{
		Lat: pr.Origin.Lat + rad2deg(xy.Y/EarthRadiusMeters),
		Lon: pr.Origin.Lon + rad2deg(xy.X/(EarthRadiusMeters*pr.cosLat)),
	}
}
