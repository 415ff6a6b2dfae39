package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzSeriesQuery feeds raw from, to, step, agg and points strings to
// the series read path, healthy and degraded: no query may answer 5xx,
// every 200 body is a Flot document, and an aggregate or degraded
// answer holds at most maxAggBuckets pairs.
func FuzzSeriesQuery(f *testing.F) {
	fx := newFixture(f)
	for _, seed := range []struct {
		from, to, step, agg, points string
		degraded                    bool
	}{
		{"", "", "", "", "", false},
		{"2019-07-01T00:00:00Z", "2019-07-01T03:00:00Z", "", "", "24", false},
		{"2019-07-01T00:00:00Z", "2019-07-01T03:00:00Z", "15m", "mean", "", false},
		{"1900-01-01T00:00:00Z", "", "120h", "count", "", false},
		{"0001-01-01T00:00:00Z", "9999-12-31T00:00:00Z", "2562047h", "max", "", false},
		{"1900-01-01T00:00:00Z", "", "", "", "", true},
		{"0001-01-01T00:00:00Z", "9999-12-31T00:00:00Z", "", "", "", true},
		{"2019-07-01T03:00:00Z", "2019-07-01T00:00:00Z", "-1s", "sum", "0", false},
	} {
		f.Add(seed.from, seed.to, seed.step, seed.agg, seed.points, seed.degraded)
	}
	f.Fuzz(func(t *testing.T, from, to, step, agg, points string, degradedPath bool) {
		q := url.Values{}
		for k, v := range map[string]string{"from": from, "to": to, "step": step, "agg": agg, "points": points} {
			if v != "" {
				q.Set(k, v)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/sensors/morland-level-1/series?"+q.Encode(), nil)
		if degradedPath {
			req = req.WithContext(context.WithValue(req.Context(), degradedKey{}, true))
		}
		rec := httptest.NewRecorder()
		fx.p.sensorSeries(rec, req, "morland-level-1")
		if rec.Code >= 500 {
			t.Fatalf("%s degraded=%v = %d %s", q.Encode(), degradedPath, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		body := rec.Body.Bytes()
		if !json.Valid(body) || !bytes.HasPrefix(body, []byte("[")) {
			t.Fatalf("%s degraded=%v: body is not a Flot document: %.200s", q.Encode(), degradedPath, body)
		}
		// Flot pairs hold only numbers and null, so "],[" separates pairs.
		pairs := 0
		if len(body) > len("[]") {
			pairs = bytes.Count(body, []byte("],[")) + 1
		}
		if (agg != "" || degradedPath) && pairs > maxAggBuckets {
			t.Fatalf("%s degraded=%v: %d pairs, max %d", q.Encode(), degradedPath, pairs, maxAggBuckets)
		}
	})
}

// FuzzRunRequest posts raw bodies to /widgets/model/run through the
// whole portal: no body may answer 5xx, and every 200 is valid JSON.
// Runs refused after the kernel has run (a non-finite hydrograph) share
// the pooled model scratch with the runs that follow them.
func FuzzRunRequest(f *testing.F) {
	fx := newFixture(f)
	for _, seed := range []string{
		`{"catchment":"morland","model":"topmodel","scenario":"compaction","topmodelParams":` +
			`{"m":31.7,"lnTe":6.2,"srMax":44.1,"sr0":2,"td":3.3,"q0":0.05,"routePeakSteps":3,"routeBaseSteps":12}}`,
		`{"catchment":"tarland","model":"fuse","scenario":"afforestation",` +
			`"storm":{"TotalDepthMM":57,"Duration":21600000000000,"PeakFraction":0.4},"stormAtHours":200}`,
		`{"catchment":"machynlleth","model":"topmodel","scenario":"storage",` +
			`"storm":{"TotalDepthMM":60,"Duration":21600000000000,"PeakFraction":0.4},"stormAtHours":120}`,
		`{"catchment":"morland","model":"topmodel","topmodelParams":{"m":28,"lnTe":5.5,"srMax":40,"sr0":2,` +
			`"td":2,"q0":0.05,"routePeakSteps":3,"routeBaseSteps":4000000000}}`,
		`{"catchment":"morland","model":"topmodel","topmodelParams":{"m":28,"lnTe":1e308,"srMax":40,"sr0":2,` +
			`"td":2,"q0":0.05,"routePeakSteps":3,"routeBaseSteps":12}}`,
		`{"catchment":"morland","model":"topmodel","storm":{}}`,
		`{"catchment":"morland","model":"fuse","rainDataset":"nope"}`,
		`{"catchment":"morland","model":"topmodel","topmodelParams":{"m":-1}}`,
		`{bad json`,
		``,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/widgets/model/run", strings.NewReader(body))
		req.RemoteAddr = nextClient()
		rec := httptest.NewRecorder()
		fx.p.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%q = %d %s", body, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%q: 200 body is not JSON: %.200s", body, rec.Body)
		}
	})
}

// FuzzDatasetUpload posts raw CSV bodies to /datasets/upload through
// the whole portal: no body answers 5xx, and a 200 names a dataset the
// observatory returns with the reported sample count. The IDs come from
// a small fixed set, so the stored datasets stay bounded.
func FuzzDatasetUpload(f *testing.F) {
	fx := newFixture(f)
	ids := [...]string{"fuzz-a", "fuzz-b", "fuzz-c", ""}
	for _, seed := range []struct {
		id   uint8
		body string
	}{
		{0, "time,rain\n2019-07-01T00:00:00Z,0.5\n2019-07-01T01:00:00Z,1.25\n2019-07-01T02:00:00Z,0\n"},
		{1, "time,rain\n2019-07-01T00:00:00Z,\n"},
		{1, "time,rain\n2019-07-01T00:00:00Z,-1\n"},
		{2, "time,rain\n2019-07-01T00:00:00Z,1\n2019-07-01T00:30:00Z,1\n"},
		{2, "time,rain\n2019-07-01T00:00:00+14:00,1e308\n2019-06-30T11:00:00Z,2\n"},
		{0, "time,rain\n0001-01-01T00:00:00Z,1\n9999-12-31T23:00:00Z,1\n"},
		{3, "time,rain\n2019-07-01T00:00:00Z,1\n"},
		{0, "time,rain\n\"unterminated"},
		{1, "time\n2019-07-01T00:00:00Z\n"},
		{2, ""},
	} {
		f.Add(seed.id, seed.body)
	}
	f.Fuzz(func(t *testing.T, pick uint8, body string) {
		id := ids[int(pick)%len(ids)]
		req := httptest.NewRequest(http.MethodPost, "/datasets/upload?"+url.Values{"id": {id}}.Encode(), strings.NewReader(body))
		req.RemoteAddr = nextClient()
		rec := httptest.NewRecorder()
		fx.p.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("id %q, %q = %d %s", id, body, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var doc struct {
			ID      string `json:"id"`
			Samples int    `json:"samples"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.ID != id {
			t.Fatalf("id %q, %q: 200 body %s (%v)", id, body, rec.Body, err)
		}
		ds, err := fx.obs.Dataset(id)
		if err != nil {
			t.Fatalf("id %q, %q: 200, then Dataset: %v", id, body, err)
		}
		if ds.Len() != doc.Samples {
			t.Fatalf("id %q, %q: 200 reports %d samples, Dataset holds %d", id, body, doc.Samples, ds.Len())
		}
	})
}

// liveSubscribers reads the sensor hub's live-subscription gauge from
// the observatory's registry.
func liveSubscribers(t testing.TB, fx *fixture) float64 {
	t.Helper()
	const id = `evop_push_subscribers{hub="sensors"}`
	for _, m := range fx.obs.MetricsRegistry().Snapshot().Metrics {
		if m.SeriesID() == id {
			return m.Value
		}
	}
	t.Fatalf("no %s series", id)
	return 0
}

// FuzzLiveTopics feeds raw ?topics= values to GET /ws/live through the
// portal, without upgrade headers: no input answers 5xx; a list holding
// an unknown or malformed topic answers 400 naming the first such
// topic; a valid list passes validation and is refused by the WebSocket
// handshake; and no subscription outlives the refused upgrade.
func FuzzLiveTopics(f *testing.F) {
	fx := newFixture(f)
	for _, seed := range []string{
		"", "sensors", "sensor/morland-level-1", "catchment/morland",
		" sensors , catchment/tarland ", "sensors,sensors",
		"bogus", "sensor/ghost", "catchment/ghost", "sensors,sensor/ghost",
		",", "sensor/", "catchment/", "SENSORS", "sensors,,catchment/morland",
		"sensor/morland-level-1\x00", "\xff",
	} {
		f.Add(seed)
	}
	start := liveSubscribers(f, fx)
	// known mirrors the portal's topic namespaces against the fixture's
	// deployed sensors and catchments.
	known := func(topic string) bool {
		switch {
		case topic == "sensors":
			return true
		case strings.HasPrefix(topic, "sensor/"):
			_, err := fx.obs.Network.Get(strings.TrimPrefix(topic, "sensor/"))
			return err == nil
		case strings.HasPrefix(topic, "catchment/"):
			_, ok := fx.obs.Catchments.Get(strings.TrimPrefix(topic, "catchment/"))
			return ok
		}
		return false
	}
	f.Fuzz(func(t *testing.T, topics string) {
		target := "/ws/live"
		if topics != "" {
			target += "?" + url.Values{"topics": {topics}}.Encode()
		}
		req := httptest.NewRequest(http.MethodGet, target, nil)
		req.RemoteAddr = nextClient()
		rec := httptest.NewRecorder()
		fx.p.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("topics=%q = %d %s", topics, rec.Code, rec.Body)
		}
		if got := liveSubscribers(t, fx); got != start {
			t.Fatalf("topics=%q left %v hub subscribers, want %v", topics, got, start)
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("topics=%q = %d %s, want 400", topics, rec.Code, rec.Body)
		}
		bad, hasBad := "", topics == ""
		if !hasBad {
			for _, topic := range strings.Split(topics, ",") {
				if topic = strings.TrimSpace(topic); !known(topic) {
					bad, hasBad = topic, true
					break
				}
			}
		}
		if !hasBad {
			// Validation passed: the handshake refuses the plain GET.
			if !strings.Contains(rec.Body.String(), "Connection: Upgrade") {
				t.Fatalf("topics=%q: body %q, want the handshake's refusal", topics, rec.Body)
			}
			return
		}
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("topics=%q: 400 body is not a JSON error: %v %q", topics, err, rec.Body)
		}
		if topics != "" && !strings.Contains(doc.Error, strconv.Quote(bad)) {
			t.Fatalf("topics=%q: error %q does not name topic %q", topics, doc.Error, bad)
		}
	})
}

// FuzzSOSQuery feeds raw service, request, procedure, from and to values
// to the SOS KVP GET through the portal: no input answers 5xx, every 200
// body is well-formed XML, a request without If-None-Match never
// answers 304, the fuzzed If-None-Match value gets a 304 only when it
// lists the response's ETag (or "*"), and sending back the ETag itself
// always does.
func FuzzSOSQuery(f *testing.F) {
	fx := newFixture(f)
	for _, seed := range []struct{ service, request, procedure, from, to, inm string }{
		{"SOS", "GetCapabilities", "", "", "", ""},
		{"sos", "DescribeSensor", "morland-level-1", "", "", ""},
		{"SOS", "DescribeSensor", "ghost", "", "", ""},
		{"SOS", "GetObservation", "morland-level-1", "", "", ""},
		{"SOS", "GetObservation", "morland-level-1", "2019-07-01T00:00:00Z", "2019-07-01T03:00:00Z", "*"},
		{"SOS", "GetObservation", "morland-level-1", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", `W/"0"`},
		{"SOS", "GetObservation", "morland-level-1", "2019-07-02T00:00:00Z", "2019-07-01T00:00:00Z", ""},
		{"SOS", "GetObservation", "morland-level-1", "yesterday", "", ""},
		{"SOS", "GetObservation", "tarland-rain-1", "", "now", `"x", "y"`},
		{"WPS", "GetCapabilities", "", "", "", ""},
		{"SOS", "Transaction<&>", "\x00\xff", "", "", ""},
		{"", "", "", "", "", ""},
	} {
		f.Add(seed.service, seed.request, seed.procedure, seed.from, seed.to, seed.inm)
	}
	get := func(query url.Values, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/sos?"+query.Encode(), nil)
		req.RemoteAddr = nextClient()
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		fx.p.ServeHTTP(rec, req)
		return rec
	}
	f.Fuzz(func(t *testing.T, service, request, procedure, from, to, inm string) {
		q := url.Values{}
		for k, v := range map[string]string{"service": service, "request": request, "procedure": procedure, "from": from, "to": to} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := get(q, "")
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s = %d %s", q.Encode(), rec.Code, rec.Body)
		case rec.Code == http.StatusNotModified:
			t.Fatalf("%s: 304 without If-None-Match", q.Encode())
		case rec.Code == http.StatusOK:
			dec := xml.NewDecoder(rec.Body)
			for {
				if _, err := dec.Token(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatalf("%s: 200 body is not well-formed XML: %v", q.Encode(), err)
				}
			}
		}
		etag := rec.Header().Get("ETag")
		if inm != "" {
			cond := get(q, inm)
			if cond.Code >= 500 {
				t.Fatalf("%s If-None-Match %q = %d %s", q.Encode(), inm, cond.Code, cond.Body)
			}
			if cond.Code == http.StatusNotModified &&
				(etag == "" || !strings.Contains(inm, etag) && !strings.Contains(inm, "*")) {
				t.Fatalf("%s: 304 for If-None-Match %q, response ETag %q", q.Encode(), inm, etag)
			}
		}
		if rec.Code == http.StatusOK && etag != "" {
			if code := get(q, etag).Code; code != http.StatusNotModified {
				t.Fatalf("%s: If-None-Match %s (the ETag) = %d, want 304", q.Encode(), etag, code)
			}
		}
	})
}
