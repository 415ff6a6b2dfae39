package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
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
	fx := newFixtureWith(f, unlimited)
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
