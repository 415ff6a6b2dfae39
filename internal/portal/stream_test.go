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
	"time"

	"evop/internal/core"
	"evop/internal/rest"
	"evop/internal/sensor"
	"evop/internal/timeseries"
)

// oldModelRunBody is the model-run encoder the streamed body replaced:
// the summary in a map beside the FlotJSON document as a RawMessage,
// re-compacted by rest.WriteJSON. It is the byte-identity oracle.
func oldModelRunBody(t *testing.T, res *core.RunResult) *httptest.ResponseRecorder {
	t.Helper()
	flot, err := res.Discharge.FlotJSON()
	if err != nil {
		t.Fatalf("FlotJSON: %v", err)
	}
	rec := httptest.NewRecorder()
	rest.WriteJSON(rec, http.StatusOK, map[string]any{
		"hydrograph":  json.RawMessage(flot),
		"peakMm":      res.PeakMM,
		"peakAt":      res.PeakAt,
		"volumeMm":    res.VolumeMM,
		"runoffRatio": res.RunoffRatio,
		"stormPeakMm": res.StormPeakMM,
		"model":       res.Model,
		"scenario":    res.Scenario,
	})
	return rec
}

// assertSameResponse checks a streamed answer against the oracle's:
// status, Content-Type and every body byte, trailing newline included.
func assertSameResponse(t *testing.T, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Fatalf("status = %d, want %d (body %.200s)", got.Code, want.Code, got.Body)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Fatalf("Content-Type = %q, want %q", g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		g, w := got.Body.Bytes(), want.Body.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("body differs at byte %d of %d (want %d):\ngot  %.80q\nwant %.80q",
			i, len(g), len(w), g[i:], w[i:])
	}
}

// TestModelRunBodyMatchesOldEncoder pins the streamed /widgets/model/run
// body byte for byte to the old encoder's, on fresh, hit and stale
// answers.
func TestModelRunBodyMatchesOldEncoder(t *testing.T) {
	f := newFixture(t)
	serve := func(t *testing.T, body string, ctx context.Context) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/widgets/model/run", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		f.p.ServeHTTP(rec, req)
		return rec
	}
	decode := func(t *testing.T, body string) core.RunRequest {
		t.Helper()
		var req core.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("request %s: %v", body, err)
		}
		return req
	}
	for _, tc := range []struct {
		name, body, cache string
	}{
		{"topmodel", `{"catchment":"morland","model":"topmodel"}`, "miss"},
		{"topmodel storm", `{"catchment":"morland","model":"topmodel","scenario":"compaction",` +
			`"storm":{"TotalDepthMM":60,"Duration":21600000000000,"PeakFraction":0.4},"stormAtHours":240}`, "miss"},
		{"fuse", `{"catchment":"tarland","model":"fuse","scenario":"afforestation"}`, "miss"},
		{"cache hit", `{"catchment":"morland","model":"topmodel"}`, "hit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := serve(t, tc.body, context.Background())
			if c := got.Header().Get("X-Cache"); c != tc.cache {
				t.Fatalf("X-Cache = %q, want %q (status %d)", c, tc.cache, got.Code)
			}
			res, outcome, err := f.obs.RunModelCachedContext(context.Background(), decode(t, tc.body))
			if err != nil || outcome.String() != "hit" {
				t.Fatalf("reference run: %v, %v", outcome, err)
			}
			if tc.name == "topmodel storm" && res.StormPeakMM == 0 {
				t.Fatal("storm run has no storm peak")
			}
			assertSameResponse(t, got, oldModelRunBody(t, res))
		})
	}
	t.Run("stale", func(t *testing.T) {
		body := `{"catchment":"morland","model":"topmodel","stormAtHours":7}`
		got := serve(t, body, context.WithValue(context.Background(), degradedKey{}, true))
		if c := got.Header().Get("X-Cache"); c != "stale" {
			t.Fatalf("X-Cache = %q, want stale", c)
		}
		res, ok, err := f.obs.StaleRun(decode(t, body))
		if err != nil || !ok {
			t.Fatalf("no stale run for the family: %v", err)
		}
		assertSameResponse(t, got, oldModelRunBody(t, res))
	})
}

// TestFusionSeriesBodyMatchesOldEncoder pins the streamed ?points=
// fusion body byte for byte to the old encoder's: FusedSample and both
// sparklines as RawMessages, re-compacted by rest.WriteJSON.
func TestFusionSeriesBodyMatchesOldEncoder(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(21 * time.Hour) // a full day of history to downsample
	at := f.clk.Now().Add(-30 * time.Minute)

	rec := httptest.NewRecorder()
	f.p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		"/widgets/fusion?catchment=morland&points=24&at="+url.QueryEscape(at.Format(time.RFC3339Nano)), nil))

	fused, err := f.obs.Network.Fuse("morland-temp-1", "morland-turb-1", "morland-cam-1", at)
	if err != nil {
		t.Fatalf("Fuse: %v", err)
	}
	sparkline := func(id string) json.RawMessage {
		view, err := f.obs.Network.HistoryView(id, at.Add(-24*time.Hour), at.Add(time.Nanosecond))
		if err != nil {
			t.Fatalf("HistoryView %s: %v", id, err)
		}
		out := timeseries.Downsample(view, 24)
		if len(view) <= len(out) {
			t.Fatalf("%s: %d readings, nothing to downsample", id, len(view))
		}
		var buf bytes.Buffer
		_ = timeseries.WriteFlot(&buf, out)
		return buf.Bytes()
	}
	want := httptest.NewRecorder()
	rest.WriteJSON(want, http.StatusOK, struct {
		sensor.FusedSample
		TemperatureSeries json.RawMessage `json:"temperatureSeries"`
		TurbiditySeries   json.RawMessage `json:"turbiditySeries"`
	}{fused, sparkline("morland-temp-1"), sparkline("morland-turb-1")})
	assertSameResponse(t, rec, want)
}
