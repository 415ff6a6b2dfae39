package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"evop/internal/catchment"
	"evop/internal/core"
	"evop/internal/geo"
	"evop/internal/httpcond"
	"evop/internal/rest"
	"evop/internal/scenario"
	"evop/internal/sensor"
)

// oldMapLayersBody is the per-request map-layer encoder the stored
// documents replaced, over the registries' contents: the byte-identity
// oracle.
func oldMapLayersBody(cats []*catchment.Catchment, sensors []sensor.Sensor, filter string) *httptest.ResponseRecorder {
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
	rec := httptest.NewRecorder()
	rest.WriteJSON(rec, http.StatusOK, fc)
	return rec
}

// oldMapLayers runs the oracle over the observatory's registries.
func oldMapLayers(obs *core.Observatory, filter string) *httptest.ResponseRecorder {
	return oldMapLayersBody(obs.Catchments.All(), obs.Network.Sensors(), filter)
}

// getDoc serves one GET through the whole portal pipeline, from a
// client of its own.
func getDoc(p *Portal, target, ifNoneMatch string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.RemoteAddr = nextClient()
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, req)
	return rec
}

// assertTagged checks a 200 document carries the strong tag of its body.
func assertTagged(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if got, want := rec.Header().Get("ETag"), httpcond.Tag(rec.Body.String()); got != want {
		t.Fatalf("ETag = %s, want %s (the tag of the body)", got, want)
	}
}

func TestPublicDocumentsMatchOldEncoder(t *testing.T) {
	f := newFixture(t)
	filters := []string{"", "no-such-catchment", "Morland"}
	for _, c := range f.obs.Catchments.All() {
		filters = append(filters, c.ID)
	}
	for _, filter := range filters {
		got := getDoc(f.p, "/map/layers?catchment="+filter, "")
		assertSameResponse(t, got, oldMapLayers(f.obs, filter))
		assertTagged(t, got)
	}
	// No query at all is the overview.
	assertSameResponse(t, getDoc(f.p, "/map/layers", ""), oldMapLayers(f.obs, ""))

	want := httptest.NewRecorder()
	rest.WriteJSON(want, http.StatusOK, scenario.All())
	got := getDoc(f.p, "/widgets/model/scenarios", "")
	assertSameResponse(t, got, want)
	assertTagged(t, got)
}

// TestMapSnapshotFilters pins which filters get a stored body: the
// overview, each catchment and each sensor's catchment, even one no
// registered catchment has; every other filter shares the empty layer.
func TestMapSnapshotFilters(t *testing.T) {
	cats := catchment.LEFTCatchments().All()
	sensors := []sensor.Sensor{
		{ID: "orphan-level-1", Kind: sensor.RiverLevel, CatchmentID: "orphan", Location: geo.Point{Lat: 55, Lon: -3}},
		{ID: "morland-level-9", Kind: sensor.RiverLevel, CatchmentID: "morland", Location: geo.Point{Lat: 54.6, Lon: -2.6}},
	}
	s, err := buildMapSnapshot(cats, sensors)
	if err != nil {
		t.Fatalf("buildMapSnapshot: %v", err)
	}
	if s.catchments != len(cats) || s.sensors != len(sensors) {
		t.Fatalf("generation = %d/%d, want %d/%d", s.catchments, s.sensors, len(cats), len(sensors))
	}
	want := []string{"", "morland", "tarland", "machynlleth", "orphan"}
	if len(s.byFilter) != len(want) {
		t.Fatalf("%d stored filters, want %d", len(s.byFilter), len(want))
	}
	for _, filter := range append(want, "elsewhere") {
		d := s.lookup(filter)
		if filter != "elsewhere" && d == s.empty {
			t.Fatalf("filter %q has no stored body", filter)
		}
		oracle := oldMapLayersBody(cats, sensors, filter)
		if !bytes.Equal(d.body, oracle.Body.Bytes()) {
			t.Fatalf("filter %q body:\n%s\nwant\n%s", filter, d.body, oracle.Body)
		}
		if d.etag != httpcond.Tag(string(d.body)) {
			t.Fatalf("filter %q ETag %s is not its body's tag", filter, d.etag)
		}
	}
}

func TestMapLayersFollowRegistryGrowth(t *testing.T) {
	f := newFixture(t)
	filters := []string{"", "morland", "tarland", "eden"}
	before := make(map[string]*httptest.ResponseRecorder)
	for _, filter := range filters {
		before[filter] = getDoc(f.p, "/map/layers?catchment="+filter, "")
	}
	if err := f.obs.Catchments.Add(&catchment.Catchment{
		ID: "eden", Name: "Upper Eden", Region: "Cumbria, England",
		Outlet: geo.Point{Lat: 54.47, Lon: -2.35}, AreaKM2: 69.4,
	}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	for _, filter := range filters {
		after := getDoc(f.p, "/map/layers?catchment="+filter, "")
		assertSameResponse(t, after, oldMapLayers(f.obs, filter))
		assertTagged(t, after)
		bodyChanged := !bytes.Equal(after.Body.Bytes(), before[filter].Body.Bytes())
		tagChanged := after.Header().Get("ETag") != before[filter].Header().Get("ETag")
		if bodyChanged != tagChanged {
			t.Fatalf("filter %q: body changed %v but ETag changed %v", filter, bodyChanged, tagChanged)
		}
		if wantChange := filter == "" || filter == "eden"; bodyChanged != wantChange {
			t.Fatalf("filter %q: body changed %v, want %v", filter, bodyChanged, wantChange)
		}
		// A client holding the old tag revalidates only if nothing changed.
		reval := getDoc(f.p, "/map/layers?catchment="+filter, before[filter].Header().Get("ETag"))
		if wantCode := map[bool]int{false: http.StatusNotModified, true: http.StatusOK}[bodyChanged]; reval.Code != wantCode {
			t.Fatalf("filter %q revalidation with the old tag = %d, want %d", filter, reval.Code, wantCode)
		}
	}
	var fc geo.FeatureCollection
	if err := json.Unmarshal(getDoc(f.p, "/map/layers?catchment=eden", "").Body.Bytes(), &fc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(fc.Features) != 2 || fc.Features[0].ID != "outlet-eden" {
		t.Fatalf("eden layer = %+v, want its outlet and boundary", fc.Features)
	}
}

func TestPublicDocumentsConditional(t *testing.T) {
	f := newFixture(t)
	for _, target := range []string{"/map/layers", "/map/layers?catchment=tarland",
		"/map/layers?catchment=nowhere", "/widgets/model/scenarios"} {
		etag := getDoc(f.p, target, "").Header().Get("ETag")
		for _, tc := range []struct {
			inm  string
			want int
		}{
			{etag, http.StatusNotModified},
			{`"0000000000000000", ` + etag, http.StatusNotModified},
			{"W/" + etag, http.StatusNotModified},
			{"*", http.StatusNotModified},
			{`"0000000000000000"`, http.StatusOK},
			{`W/"0000000000000000"`, http.StatusOK},
		} {
			rec := getDoc(f.p, target, tc.inm)
			if rec.Code != tc.want {
				t.Fatalf("%s If-None-Match %s = %d, want %d", target, tc.inm, rec.Code, tc.want)
			}
			if rec.Header().Get("ETag") != etag {
				t.Fatalf("%s If-None-Match %s: ETag %q, want %q", target, tc.inm, rec.Header().Get("ETag"), etag)
			}
			if tc.want == http.StatusNotModified && rec.Body.Len() != 0 {
				t.Fatalf("%s: 304 with a %d-byte body", target, rec.Body.Len())
			}
		}
	}
}

// TestMapLayersConcurrentGrowth reads the map layer while catchments are
// registered: every answer is a whole, correctly tagged document, a
// reader never sees the layer shrink, and once Add returns no stale
// body is served.
func TestMapLayersConcurrentGrowth(t *testing.T) {
	f := newFixture(t)
	base := len(f.obs.Catchments.All())*2 + len(f.obs.Network.Sensors())
	const added = 12
	var wg, ready sync.WaitGroup
	stop := make(chan struct{})
	stopReaders := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopReaders() // also on a failed assertion below
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			started := sync.OnceFunc(ready.Done)
			defer started()
			seen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := getDoc(f.p, "/map/layers", "")
				var fc geo.FeatureCollection
				if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil || rec.Code != http.StatusOK {
					errs <- fmt.Errorf("overview = %d: %v", rec.Code, err)
					return
				}
				if rec.Header().Get("ETag") != httpcond.Tag(rec.Body.String()) {
					errs <- fmt.Errorf("ETag %s does not tag the body", rec.Header().Get("ETag"))
					return
				}
				n := len(fc.Features)
				if n < seen || n < base || n > base+2*added {
					errs <- fmt.Errorf("overview has %d features after %d (base %d)", n, seen, base)
					return
				}
				seen = n
				started()
			}
		}()
	}
	ready.Wait() // every reader has answered once before the first Add
	for i := 0; i < added; i++ {
		id := fmt.Sprintf("extra-%d", i)
		if err := f.obs.Catchments.Add(&catchment.Catchment{
			ID: id, Name: id, Outlet: geo.Point{Lat: 54 + float64(i)/10, Lon: -3}, AreaKM2: 10,
		}); err != nil {
			t.Fatalf("Add: %v", err)
		}
		rec := getDoc(f.p, "/map/layers?catchment="+id, "")
		assertSameResponse(t, rec, oldMapLayers(f.obs, id))
	}
	stopReaders()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	final := getDoc(f.p, "/map/layers", "")
	assertSameResponse(t, final, oldMapLayers(f.obs, ""))
	assertTagged(t, final)
}

// TestPublicDocumentsAllocs pins what a request costs through the whole
// pipeline with the default logger: the status recorder, the request ID
// and its header value, and what the handler itself sends. /healthz is
// exempt from admission and encodes its JSON per request; the documents
// take a rate token and a slot and answer a stored body.
func TestPublicDocumentsAllocs(t *testing.T) {
	f := newFixture(t)
	w := &discardWriter{header: make(http.Header)}
	for _, tc := range []struct {
		target string
		want   float64
	}{
		{"/healthz", 9},
		{"/map/layers", 6},
		{"/map/layers?catchment=morland", 8},
		{"/widgets/model/scenarios", 5},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		f.p.ServeHTTP(w, req) // builds the map snapshot
		n := testing.AllocsPerRun(100, func() {
			w.status = 0
			f.p.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("%s = %d", tc.target, w.status)
			}
		})
		if n != tc.want {
			t.Fatalf("%s allocates %v times per request, want %v", tc.target, n, tc.want)
		}
	}
}

// TestReadOnlyDocumentsRefuseOtherMethods is the method × route matrix
// through the whole portal: every method against every route of the
// table. Each target answers its pinned status to each method its route
// lists (a delegated handler may still refuse one on one of its paths,
// with that path's narrower Allow), and 304 to GET and HEAD carrying its
// current tag; any other method answers 405 with the route's exact Allow
// and a JSON error body, even when it carries the tag. A path no route
// serves answers 404 whatever the method.
func TestReadOnlyDocumentsRefuseOtherMethods(t *testing.T) {
	f := newFixture(t)
	// Each route's targets, with the status each answers to the route's
	// methods in Allow order; where a route runs models, a target that
	// fails fast.
	type target struct {
		path string
		want []int
	}
	targets := map[string][]target{
		"/":                           {{"/", []int{200, 200}}},
		"/api/":                       {{"/api/datasets", []int{200, 200, 405, 405}}, {"/api/datasets/matrix", []int{404, 404, 201, 204}}},
		"/datasets/upload":            {{"/datasets/upload?id=matrix", []int{400}}},
		"/healthz":                    {{"/healthz", []int{200, 200}}},
		"/map/layers":                 {{"/map/layers", []int{200, 200}}, {"/map/layers?catchment=tarland", []int{200, 200}}},
		"/metrics":                    {{"/metrics", []int{200, 200}}},
		"/sensors/":                   {{"/sensors/morland-level-1/series", []int{200, 200}}, {"/sensors/morland-level-1/latest", []int{200, 200}}, {"/sensors/morland-level-1/nope", []int{404, 404}}},
		"/sessions/":                  {{"/sessions/ghost", []int{404, 404, 404}}},
		"/sessions/connect":           {{"/sessions/connect", []int{400}}},
		"/sos":                        {{"/sos", []int{400, 400, 400}}},
		"/widgets/fusion":             {{"/widgets/fusion", []int{400, 400}}},
		"/widgets/lowflow":            {{"/widgets/lowflow", []int{404, 404}}},
		"/widgets/model/run":          {{"/widgets/model/run", []int{404}}},
		"/widgets/model/scenarios":    {{"/widgets/model/scenarios", []int{200, 200}}},
		"/widgets/model/storm-window": {{"/widgets/model/storm-window", []int{404, 404}}},
		"/widgets/quality":            {{"/widgets/quality", []int{404, 404}}},
		"/workflows":                  {{"/workflows", []int{200, 200, 400}}},
		"/workflows/":                 {{"/workflows/ghost", []int{404, 404, 405}}, {"/workflows/ghost/replay", []int{405, 405, 400}}},
		"/wps":                        {{"/wps", []int{400, 400, 400}}},
		"/ws/live":                    {{"/ws/live", []int{400}}},
		"/ws/session":                 {{"/ws/session", []int{400}}},
	}
	methods := []string{http.MethodGet, http.MethodHead, http.MethodPost,
		http.MethodPut, http.MethodDelete, http.MethodPatch, http.MethodOptions}
	send := func(method, target, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, target, strings.NewReader(`{}`))
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		f.p.ServeHTTP(rec, req)
		return rec
	}
	for _, rt := range wantRoutes {
		listed := strings.Split(rt.allow, ", ")
		if len(targets[rt.pattern]) == 0 {
			t.Fatalf("no target for route %s", rt.pattern)
		}
		for _, tg := range targets[rt.pattern] {
			if len(tg.want) != len(listed) {
				t.Fatalf("%s: %d wanted statuses for Allow %q", tg.path, len(tg.want), rt.allow)
			}
			tags := []string{""}
			if etag := getDoc(f.p, tg.path, "").Header().Get("ETag"); etag != "" {
				tags = append(tags, etag)
			}
			for _, method := range methods {
				i := slices.Index(listed, method)
				for _, inm := range tags {
					want := http.StatusMethodNotAllowed
					if i >= 0 && inm != "" {
						want = http.StatusNotModified
					} else if i >= 0 {
						want = tg.want[i]
					}
					rec := send(method, tg.path, inm)
					allow := rec.Header()["Allow"]
					switch {
					case rec.Code != want:
						t.Fatalf("%s %s If-None-Match %q = %d, want %d", method, tg.path, inm, rec.Code, want)
					case i >= 0 && want == http.StatusMethodNotAllowed && slices.Equal(allow, []string{rt.allow}):
						t.Fatalf("%s %s: refused by the route table, which lists it (%s)", method, tg.path, rt.allow)
					case i >= 0:
					case !slices.Equal(allow, []string{rt.allow}):
						t.Fatalf("%s %s: Allow %q, want %q", method, tg.path, allow, rt.allow)
					case rec.Body.String() != `{"error":"`+method+` not supported"}`+"\n":
						t.Fatalf("%s %s: 405 body %q", method, tg.path, rec.Body)
					}
				}
			}
		}
	}
	for _, method := range methods {
		if rec := send(method, "/no-such-path", ""); rec.Code != http.StatusNotFound || rec.Header().Get("Allow") != "" {
			t.Fatalf("%s /no-such-path = %d, Allow %q; want 404", method, rec.Code, rec.Header().Get("Allow"))
		}
	}
}
