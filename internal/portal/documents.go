package portal

// Public documents: the map marker layer (/map/layers, every
// ?catchment= filter) and the modelling widget's scenario list
// (/widgets/model/scenarios). Both are the same bytes for every visitor
// until an asset registry grows, so each is encoded once and served from
// the stored body with a strong ETag; a matching If-None-Match answers
// 304 without a body.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"evop/internal/catchment"
	"evop/internal/geo"
	"evop/internal/httpcond"
	"evop/internal/rest"
	"evop/internal/sensor"
)

// document is one encoded response body and its entity tag.
type document struct {
	body []byte
	etag string
}

// encodeDocument encodes v exactly as rest.WriteJSON does (HTML-escaped,
// compacted, trailing newline) and tags the resulting bytes.
func encodeDocument(v any) (document, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return document{}, err
	}
	return document{body: buf.Bytes(), etag: httpcond.Tag(buf.String())}, nil
}

// serve answers the stored document: 304 when If-None-Match names its
// tag, 200 with the body otherwise.
func (d *document) serve(w http.ResponseWriter, r *http.Request) {
	httpcond.Apply(w, d.etag, time.Time{})
	if httpcond.Match(r, d.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(d.body)
}

// mapSnapshot is the map layer encoded for one state of the catchment
// registry and the sensor network, identified by their lengths (both
// only grow, so a length is an exact generation).
type mapSnapshot struct {
	catchments, sensors int
	// byFilter holds a body for "" (every marker), each catchment ID and
	// each sensor's CatchmentID; any other filter selects no feature and
	// gets empty.
	byFilter map[string]*document
	empty    *document
}

// lookup returns the document for a ?catchment= filter value.
func (s *mapSnapshot) lookup(filter string) *document {
	if d, ok := s.byFilter[filter]; ok {
		return d
	}
	return s.empty
}

// mapLayerCache holds the current map snapshot; readers load it without
// locking, and rebuilds after registry growth are serialised by mu.
type mapLayerCache struct {
	cur atomic.Pointer[mapSnapshot]
	mu  sync.Mutex
}

// snapshot returns the map snapshot for the registries' current state,
// rebuilding it when either has grown since the stored one was built.
func (c *mapLayerCache) snapshot(cats *catchment.Registry, net *sensor.Network) (*mapSnapshot, error) {
	current := func() *mapSnapshot {
		if s := c.cur.Load(); s != nil && s.catchments == cats.Len() && s.sensors == net.Len() {
			return s
		}
		return nil
	}
	if s := current(); s != nil {
		return s, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := current(); s != nil {
		return s, nil
	}
	s, err := buildMapSnapshot(cats.All(), net.Sensors())
	if err != nil {
		return nil, err
	}
	c.cur.Store(s)
	return s, nil
}

// buildMapSnapshot encodes the map layer for every filter value that
// selects at least one feature. Its generation is what it encoded, so a
// registry that grows meanwhile is picked up by the next request.
func buildMapSnapshot(cats []*catchment.Catchment, sensors []sensor.Sensor) (*mapSnapshot, error) {
	s := &mapSnapshot{
		catchments: len(cats),
		sensors:    len(sensors),
		byFilter:   make(map[string]*document),
	}
	add := func(filter string) error {
		if _, ok := s.byFilter[filter]; ok {
			return nil
		}
		d, err := encodeDocument(mapFeatures(cats, sensors, filter))
		if err != nil {
			return err
		}
		s.byFilter[filter] = &d
		return nil
	}
	if err := add(""); err != nil {
		return nil, err
	}
	for _, c := range cats {
		if err := add(c.ID); err != nil {
			return nil, err
		}
	}
	for _, sn := range sensors {
		if err := add(sn.CatchmentID); err != nil {
			return nil, err
		}
	}
	empty, err := encodeDocument(geo.FeatureCollection{})
	if err != nil {
		return nil, err
	}
	s.empty = &empty
	return s, nil
}

// mapFeatures builds the geotagged marker layer: every catchment outlet
// and boundary, then every sensor, keeping those whose catchment is
// filter (all of them when filter is empty).
func mapFeatures(cats []*catchment.Catchment, sensors []sensor.Sensor, filter string) geo.FeatureCollection {
	var fc geo.FeatureCollection
	for _, c := range cats {
		if filter != "" && c.ID != filter {
			continue
		}
		fc.Features = append(fc.Features, geo.Feature{
			ID:       "outlet-" + c.ID,
			Geometry: c.Outlet,
			Properties: map[string]any{
				"type": "catchmentOutlet", "name": c.Name, "catchment": c.ID,
			},
		})
		if poly, err := c.Outline(); err == nil {
			fc.Features = append(fc.Features, geo.Feature{
				ID:      "boundary-" + c.ID,
				Outline: poly.Ring(),
				Properties: map[string]any{
					"type": "catchmentBoundary", "name": c.Name, "catchment": c.ID,
					"areaKm2": c.AreaKM2,
				},
			})
		}
	}
	for _, s := range sensors {
		if filter != "" && s.CatchmentID != filter {
			continue
		}
		fc.Features = append(fc.Features, geo.Feature{
			ID:       s.ID,
			Geometry: s.Location,
			Properties: map[string]any{
				"type": "sensor", "kind": s.Kind.String(), "unit": s.Kind.Unit(),
				"catchment": s.CatchmentID,
			},
		})
	}
	return fc
}

// mapLayers serves the geotagged marker layer: every sensor and every
// catchment outlet, optionally filtered by ?catchment=.
func (p *Portal) mapLayers(w http.ResponseWriter, r *http.Request) {
	s, err := p.mapCache.snapshot(p.obs.Catchments, p.obs.Network)
	if err != nil {
		rest.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.lookup(r.URL.Query().Get("catchment")).serve(w, r)
}

// scenarios lists the widget's preset buttons; scenario.All is
// constant, so its document is encoded once in New.
func (p *Portal) scenarios(w http.ResponseWriter, r *http.Request) {
	p.scenarioDoc.serve(w, r)
}
