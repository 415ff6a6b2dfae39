// Package geo provides the geospatial primitives behind EVOp's interactive
// map layer: WGS84 points, bounding boxes, simple polygons for catchment
// outlines, and GeoJSON encoding for the marker layers the portal serves
// to its Google-Maps-style front end.
package geo

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ErrBadCoordinate indicates a latitude or longitude outside its valid
// range.
var ErrBadCoordinate = errors.New("geo: coordinate out of range")

// Point is a WGS84 coordinate in decimal degrees.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// Validate reports whether the point's coordinates are in range.
func (p Point) Validate() error {
	if math.IsNaN(p.Lat) || p.Lat < -90 || p.Lat > 90 {
		return fmt.Errorf("latitude %v: %w", p.Lat, ErrBadCoordinate)
	}
	if math.IsNaN(p.Lon) || p.Lon < -180 || p.Lon > 180 {
		return fmt.Errorf("longitude %v: %w", p.Lon, ErrBadCoordinate)
	}
	return nil
}

// String formats the point as "lat,lon".
func (p Point) String() string { return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon) }

// BBox is an axis-aligned bounding box. A box that crosses the antimeridian
// is not supported (none of the EVOp catchments need it).
type BBox struct {
	MinLat float64 `json:"minLat"`
	MinLon float64 `json:"minLon"`
	MaxLat float64 `json:"maxLat"`
	MaxLon float64 `json:"maxLon"`
}

// Center returns the box's midpoint.
func (b BBox) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Expand grows the box just enough to contain p and returns the result.
func (b BBox) Expand(p Point) BBox {
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

// Polygon is a simple (non-self-intersecting) closed ring of points used
// for catchment outlines. The ring is implicitly closed: the last vertex
// connects back to the first.
type Polygon struct {
	ring []Point
}

// NewPolygon returns a polygon over a copy of ring. At least three
// vertices are required.
func NewPolygon(ring []Point) (*Polygon, error) {
	if len(ring) < 3 {
		return nil, fmt.Errorf("geo: polygon needs >=3 vertices, got %d", len(ring))
	}
	for i, p := range ring {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("vertex %d: %w", i, err)
		}
	}
	cp := make([]Point, len(ring))
	copy(cp, ring)
	return &Polygon{ring: cp}, nil
}

// Ring returns a copy of the polygon's vertices.
func (pg *Polygon) Ring() []Point {
	out := make([]Point, len(pg.ring))
	copy(out, pg.ring)
	return out
}

// Contains reports whether p is inside the polygon using the even-odd ray
// casting rule (treating lat/lon as planar, adequate at catchment scale).
func (pg *Polygon) Contains(p Point) bool {
	in := false
	n := len(pg.ring)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg.ring[i], pg.ring[j]
		if (a.Lat > p.Lat) != (b.Lat > p.Lat) {
			x := (b.Lon-a.Lon)*(p.Lat-a.Lat)/(b.Lat-a.Lat) + a.Lon
			if p.Lon < x {
				in = !in
			}
		}
	}
	return in
}

// Bounds returns the polygon's bounding box.
func (pg *Polygon) Bounds() BBox {
	b := BBox{MinLat: pg.ring[0].Lat, MaxLat: pg.ring[0].Lat, MinLon: pg.ring[0].Lon, MaxLon: pg.ring[0].Lon}
	for _, p := range pg.ring[1:] {
		b = b.Expand(p)
	}
	return b
}

// Feature is a GeoJSON Feature: a point marker, or a polygon outline when
// Outline is non-empty (a catchment boundary on the portal map).
type Feature struct {
	ID         string         `json:"id"`
	Geometry   Point          `json:"-"`
	Outline    []Point        `json:"-"`
	Properties map[string]any `json:"properties,omitempty"`
}

// FeatureCollection is the GeoJSON payload served for a portal map layer.
type FeatureCollection struct {
	Features []Feature
}

// MarshalJSON encodes the collection as standard GeoJSON
// (type: FeatureCollection, Point geometries in [lon, lat] order).
func (fc FeatureCollection) MarshalJSON() ([]byte, error) {
	type geom struct {
		Type        string `json:"type"`
		Coordinates any    `json:"coordinates"`
	}
	type feat struct {
		Type       string         `json:"type"`
		ID         string         `json:"id,omitempty"`
		Geometry   geom           `json:"geometry"`
		Properties map[string]any `json:"properties"`
	}
	out := struct {
		Type     string `json:"type"`
		Features []feat `json:"features"`
	}{Type: "FeatureCollection", Features: make([]feat, 0, len(fc.Features))}
	for _, f := range fc.Features {
		props := f.Properties
		if props == nil {
			props = map[string]any{}
		}
		g := geom{Type: "Point", Coordinates: [2]float64{f.Geometry.Lon, f.Geometry.Lat}}
		if len(f.Outline) > 0 {
			// GeoJSON Polygon: one linear ring, explicitly closed.
			ring := make([][2]float64, 0, len(f.Outline)+1)
			for _, p := range f.Outline {
				ring = append(ring, [2]float64{p.Lon, p.Lat})
			}
			ring = append(ring, ring[0])
			g = geom{Type: "Polygon", Coordinates: [][][2]float64{ring}}
		}
		out.Features = append(out.Features, feat{
			Type:       "Feature",
			ID:         f.ID,
			Geometry:   g,
			Properties: props,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a GeoJSON FeatureCollection of Point and Polygon
// features.
func (fc *FeatureCollection) UnmarshalJSON(data []byte) error {
	var raw struct {
		Type     string `json:"type"`
		Features []struct {
			ID       string `json:"id"`
			Geometry struct {
				Type        string          `json:"type"`
				Coordinates json.RawMessage `json:"coordinates"`
			} `json:"geometry"`
			Properties map[string]any `json:"properties"`
		} `json:"features"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("parsing feature collection: %w", err)
	}
	if raw.Type != "FeatureCollection" {
		return fmt.Errorf("geo: unexpected GeoJSON type %q", raw.Type)
	}
	fc.Features = fc.Features[:0]
	for i, f := range raw.Features {
		feature := Feature{ID: f.ID, Properties: f.Properties}
		switch f.Geometry.Type {
		case "Point":
			var c [2]float64
			if err := json.Unmarshal(f.Geometry.Coordinates, &c); err != nil {
				return fmt.Errorf("geo: feature %d point: %w", i, err)
			}
			feature.Geometry = Point{Lat: c[1], Lon: c[0]}
		case "Polygon":
			var rings [][][2]float64
			if err := json.Unmarshal(f.Geometry.Coordinates, &rings); err != nil {
				return fmt.Errorf("geo: feature %d polygon: %w", i, err)
			}
			if len(rings) == 0 || len(rings[0]) < 4 {
				return fmt.Errorf("geo: feature %d polygon has no closed ring", i)
			}
			ring := rings[0]
			for _, c := range ring[:len(ring)-1] { // drop the closing vertex
				feature.Outline = append(feature.Outline, Point{Lat: c[1], Lon: c[0]})
			}
			feature.Geometry = (&Polygon{ring: feature.Outline}).Bounds().Center()
		default:
			return fmt.Errorf("geo: feature %d has geometry %q, want Point or Polygon", i, f.Geometry.Type)
		}
		fc.Features = append(fc.Features, feature)
	}
	return nil
}
