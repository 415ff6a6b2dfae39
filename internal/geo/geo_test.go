package geo

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPointValidation(t *testing.T) {
	tests := []struct {
		name     string
		lat, lon float64
		wantErr  bool
	}{
		{"valid", 54.6, -2.6, false},
		{"north pole", 90, 0, false},
		{"lat too big", 90.1, 0, true},
		{"lat too small", -90.1, 0, true},
		{"lon too big", 0, 180.1, true},
		{"lon too small", 0, -180.1, true},
		{"NaN lat", math.NaN(), 0, true},
		{"NaN lon", 0, math.NaN(), true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := Point{Lat: tc.lat, Lon: tc.lon}.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%v,%v) err = %v, wantErr=%v", tc.lat, tc.lon, err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadCoordinate) {
				t.Fatalf("err = %v, want ErrBadCoordinate", err)
			}
		})
	}
}

func TestBBox(t *testing.T) {
	b := BBox{MinLat: 54, MinLon: -3, MaxLat: 55, MaxLon: -2}
	c := b.Center()
	if c.Lat != 54.5 || c.Lon != -2.5 {
		t.Fatalf("Center = %v", c)
	}
}

func TestBBoxExpand(t *testing.T) {
	b := BBox{MinLat: 54, MinLon: -3, MaxLat: 55, MaxLon: -2}
	b = b.Expand(Point{56, -1})
	if b.MaxLat != 56 || b.MaxLon != -1 {
		t.Fatalf("Expand = %+v", b)
	}
	b = b.Expand(Point{50, -5})
	if b.MinLat != 50 || b.MinLon != -5 {
		t.Fatalf("Expand = %+v", b)
	}
}

func TestPolygon(t *testing.T) {
	square, err := NewPolygon([]Point{{0, 0}, {0, 10}, {10, 10}, {10, 0}})
	if err != nil {
		t.Fatalf("NewPolygon: %v", err)
	}
	if !square.Contains(Point{5, 5}) {
		t.Fatal("Contains(interior) = false")
	}
	if square.Contains(Point{15, 5}) {
		t.Fatal("Contains(exterior lat) = true")
	}
	if square.Contains(Point{5, 15}) {
		t.Fatal("Contains(exterior lon) = true")
	}
	bounds := square.Bounds()
	if bounds.MinLat != 0 || bounds.MaxLat != 10 || bounds.MinLon != 0 || bounds.MaxLon != 10 {
		t.Fatalf("Bounds = %+v", bounds)
	}
	if _, err := NewPolygon([]Point{{0, 0}, {1, 1}}); err == nil {
		t.Fatal("2-vertex polygon: want error")
	}
	if _, err := NewPolygon([]Point{{0, 0}, {1, 1}, {99, 0}}); err == nil {
		t.Fatal("invalid vertex: want error")
	}
}

func TestPolygonConcave(t *testing.T) {
	// L-shape: the notch must be outside.
	l, err := NewPolygon([]Point{{0, 0}, {0, 10}, {5, 10}, {5, 5}, {10, 5}, {10, 0}})
	if err != nil {
		t.Fatalf("NewPolygon: %v", err)
	}
	if !l.Contains(Point{2, 8}) {
		t.Fatal("point in L arm reported outside")
	}
	if l.Contains(Point{8, 8}) {
		t.Fatal("point in notch reported inside")
	}
}

func TestPolygonRingIsCopy(t *testing.T) {
	ring := []Point{{0, 0}, {0, 1}, {1, 1}}
	pg, _ := NewPolygon(ring)
	ring[0] = Point{50, 50}
	if pg.Ring()[0].Lat != 0 {
		t.Fatal("polygon shares caller's ring slice")
	}
	r := pg.Ring()
	r[1] = Point{50, 50}
	if pg.Ring()[1].Lat != 0 {
		t.Fatal("Ring did not return a copy")
	}
}

func TestFeatureCollectionRoundTrip(t *testing.T) {
	fc := FeatureCollection{Features: []Feature{
		{ID: "gauge-1", Geometry: Point{54.6, -2.6}, Properties: map[string]any{"kind": "riverLevel"}},
		{ID: "cam-1", Geometry: Point{54.7, -2.5}},
	}}
	data, err := json.Marshal(fc)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got FeatureCollection
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got.Features) != 2 {
		t.Fatalf("features = %d", len(got.Features))
	}
	if got.Features[0].ID != "gauge-1" || got.Features[0].Geometry != (Point{54.6, -2.6}) {
		t.Fatalf("feature[0] = %+v", got.Features[0])
	}
	if got.Features[0].Properties["kind"] != "riverLevel" {
		t.Fatalf("properties = %+v", got.Features[0].Properties)
	}
}

func TestFeatureCollectionUnmarshalErrors(t *testing.T) {
	var fc FeatureCollection
	if err := json.Unmarshal([]byte(`{"type":"Feature"}`), &fc); err == nil {
		t.Fatal("wrong type: want error")
	}
	bad := `{"type":"FeatureCollection","features":[{"geometry":{"type":"LineString"}}]}`
	if err := json.Unmarshal([]byte(bad), &fc); err == nil {
		t.Fatal("non-point geometry: want error")
	}
	if err := json.Unmarshal([]byte(`[1,2]`), &fc); err == nil {
		t.Fatal("non-object: want error")
	}
}

func TestBBoxContainsItsCenterProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		minLat, minLon := float64(a%80)-40, float64(b%170)-85
		box := BBox{MinLat: minLat, MinLon: minLon, MaxLat: minLat + 5, MaxLon: minLon + 5}
		c := box.Center()
		return c.Lat >= box.MinLat && c.Lat <= box.MaxLat && c.Lon >= box.MinLon && c.Lon <= box.MaxLon
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPointString(t *testing.T) {
	if got := (Point{54.5, -2.25}).String(); got != "54.500000,-2.250000" {
		t.Fatalf("String() = %q", got)
	}
}

func TestFeatureCollectionPolygonRoundTrip(t *testing.T) {
	outline := []Point{{54, -3}, {54, -2}, {55, -2}, {55, -3}}
	fc := FeatureCollection{Features: []Feature{
		{ID: "boundary-1", Outline: outline, Properties: map[string]any{"type": "catchmentBoundary"}},
		{ID: "marker-1", Geometry: Point{54.5, -2.5}},
	}}
	data, err := json.Marshal(fc)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !strings.Contains(string(data), `"Polygon"`) {
		t.Fatalf("no polygon geometry: %s", data)
	}
	var got FeatureCollection
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if len(got.Features) != 2 {
		t.Fatalf("features = %d", len(got.Features))
	}
	b := got.Features[0]
	if len(b.Outline) != 4 {
		t.Fatalf("outline vertices = %d, want 4 (closing vertex dropped)", len(b.Outline))
	}
	if b.Outline[0] != outline[0] {
		t.Fatalf("outline[0] = %v", b.Outline[0])
	}
	// The representative point is the outline's centroid-ish bounds centre.
	if b.Geometry.Lat != 54.5 || b.Geometry.Lon != -2.5 {
		t.Fatalf("polygon representative point = %v", b.Geometry)
	}
}

func TestFeatureCollectionPolygonErrors(t *testing.T) {
	var fc FeatureCollection
	openRing := `{"type":"FeatureCollection","features":[{"geometry":{"type":"Polygon","coordinates":[[[0,0],[1,1]]]}}]}`
	if err := json.Unmarshal([]byte(openRing), &fc); err == nil {
		t.Fatal("unclosed ring accepted")
	}
	badCoords := `{"type":"FeatureCollection","features":[{"geometry":{"type":"Polygon","coordinates":"x"}}]}`
	if err := json.Unmarshal([]byte(badCoords), &fc); err == nil {
		t.Fatal("bad coordinates accepted")
	}
}
