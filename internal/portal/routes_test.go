package portal

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"evop/internal/admission"
)

// wantRoutes is the portal's route table as reviewed: a change to any
// route's methods or admission posture is a diff here. A forgotten class
// or mode would silently read Ingest/modeGate, their zero values.
var wantRoutes = []struct {
	pattern string
	allow   string
	class   admission.Class
	mode    admitMode
}{
	{"/healthz", "GET, HEAD", admission.Live, modeExempt},
	{"/metrics", "GET, HEAD", admission.Live, modeExempt},
	{"/sos", "GET, HEAD, POST", admission.Ingest, modeGate},
	{"/datasets/upload", "POST", admission.Ingest, modeGate},
	{"/", "GET, HEAD", admission.Live, modeGate},
	{"/api/", "GET, HEAD, PUT, DELETE", admission.Live, modeGate},
	{"/map/layers", "GET, HEAD", admission.Live, modeGate},
	{"/sensors/", "GET, HEAD", admission.Live, modeDegrade},
	{"/widgets/fusion", "GET, HEAD", admission.Live, modeGate},
	{"/widgets/model/scenarios", "GET, HEAD", admission.Live, modeGate},
	{"/sessions/connect", "POST", admission.Live, modeGate},
	{"/sessions/", "GET, HEAD, DELETE", admission.Live, modeGate},
	{"/ws/session", "GET", admission.Live, modeRateOnly},
	{"/ws/live", "GET", admission.Live, modeRateOnly},
	{"/widgets/model/run", "POST", admission.Model, modeDegrade},
	{"/widgets/model/storm-window", "GET, HEAD", admission.Model, modeGate},
	{"/widgets/quality", "GET, HEAD", admission.Model, modeGate},
	{"/widgets/lowflow", "GET, HEAD", admission.Model, modeGate},
	{"/wps", "GET, HEAD, POST", admission.Bulk, modeGate},
	{"/workflows", "GET, HEAD, POST", admission.Bulk, modeGate},
	{"/workflows/", "GET, HEAD, POST", admission.Bulk, modeGate},
}

// TestRouteTablePosture pins the route table entry by entry, and the
// route labels: the evop_http_request_seconds series are exactly the 21
// the portal has always registered, one per pattern.
func TestRouteTablePosture(t *testing.T) {
	f := newFixture(t)
	if len(f.p.routes) != len(wantRoutes) {
		t.Fatalf("%d routes, want %d", len(f.p.routes), len(wantRoutes))
	}
	for i, want := range wantRoutes {
		rt := f.p.routes[i]
		got := strings.Join(rt.methods, ", ")
		if rt.pattern != want.pattern || got != want.allow || rt.class != want.class || rt.mode != want.mode {
			t.Errorf("route %d = {%s [%s] %s %d}, want {%s [%s] %s %d}", i,
				rt.pattern, got, rt.class, rt.mode, want.pattern, want.allow, want.class, want.mode)
		}
	}

	labels := []string{"/", "/api/", "/datasets/upload", "/healthz", "/map/layers", "/metrics",
		"/sensors/", "/sessions/", "/sessions/connect", "/sos", "/widgets/fusion",
		"/widgets/lowflow", "/widgets/model/run", "/widgets/model/scenarios",
		"/widgets/model/storm-window", "/widgets/quality", "/workflows", "/workflows/",
		"/wps", "/ws/live", "/ws/session"}
	var want, got []string
	for _, l := range labels {
		want = append(want, `evop_http_request_seconds{route="`+l+`"}`)
	}
	for _, m := range f.obs.MetricsRegistry().Snapshot().Metrics {
		if m.Name == "evop_http_request_seconds" {
			got = append(got, m.SeriesID())
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("route series:\n got %q\nwant %q", got, want)
	}
}

// TestRefusedMethodSpendsNothing sends refused methods to the model
// routes, WPS and SOS, each a request the route would serve under its
// own method: none takes an admission token, touches the run cache,
// runs a model or stores a reading. The same requests under their
// allowed methods then move every one of those counters.
func TestRefusedMethodSpendsNothing(t *testing.T) {
	f := newFixture(t)
	const sensorID = "morland-level-1"
	stamp := f.clk.Now().Add(time.Minute).UTC().Format(time.RFC3339)
	insert := `<sos:InsertObservation xmlns:sos="http://www.opengis.net/sos/1.0" xmlns:om="http://www.opengis.net/om/1.0">` +
		`<om:Observation><om:procedure>` + sensorID + `</om:procedure><om:samplingTime>` + stamp +
		`</om:samplingTime><om:result>0.5</om:result></om:Observation></sos:InsertObservation>`
	requests := []struct{ refused, allowed, target, body string }{
		{http.MethodDelete, http.MethodGet, "/widgets/quality?catchment=morland&scenario=compaction", ""},
		{http.MethodPost, http.MethodGet, "/widgets/lowflow?catchment=morland&scenario=afforestation", ""},
		{http.MethodPut, http.MethodGet, "/widgets/model/storm-window?catchment=morland", ""},
		{http.MethodGet, http.MethodPost, "/widgets/model/run", `{"catchment":"morland","model":"topmodel","scenario":"compaction"}`},
		{http.MethodDelete, http.MethodGet, "/wps?service=WPS&request=Execute&identifier=topmodel&datainputs=catchment%3Dmorland", ""},
		{http.MethodPut, http.MethodPost, "/sos", insert},
	}
	counters := func() map[string]float64 {
		out := map[string]float64{}
		for _, m := range f.obs.MetricsRegistry().Snapshot().Metrics {
			switch {
			case m.Histogram != nil && m.Name == "evop_model_run_seconds":
				out[m.SeriesID()] = float64(m.Histogram.Count)
			case strings.HasPrefix(m.Name, "evop_runcache_") && strings.HasSuffix(m.Name, "_total"),
				m.Name == "evop_admission_admitted_total", m.Name == "evop_admission_shed_total",
				m.Name == "evop_wps_executions_total", m.Name == "evop_sensor_external_ingest_total":
				out[m.SeriesID()] = m.Value
			}
		}
		return out
	}
	latest := func() time.Time {
		r, err := f.obs.Network.Latest(sensorID)
		if err != nil {
			t.Fatalf("Latest: %v", err)
		}
		return r.Time
	}
	send := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.p.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}

	before, stored := counters(), latest()
	for _, rq := range requests {
		if rec := send(rq.refused, rq.target, rq.body); rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s = %d, want 405", rq.refused, rq.target, rec.Code)
		}
	}
	after := counters()
	for id, v := range before {
		if after[id] != v {
			t.Errorf("%s moved from %v to %v on refused methods", id, v, after[id])
		}
	}
	if got := latest(); !got.Equal(stored) {
		t.Errorf("latest %s reading moved from %v to %v on a refused insert", sensorID, stored, got)
	}

	for _, rq := range requests {
		if rec := send(rq.allowed, rq.target, rq.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d %s", rq.allowed, rq.target, rec.Code, rec.Body)
		}
	}
	moved := counters()
	for _, id := range []string{`evop_admission_admitted_total{class="model"}`, `evop_admission_admitted_total{class="bulk"}`,
		`evop_admission_admitted_total{class="ingest"}`, "evop_runcache_misses_total",
		`evop_model_run_seconds`, `evop_wps_executions_total{mode="sync"}`, "evop_sensor_external_ingest_total"} {
		if moved[id] <= after[id] {
			t.Errorf("%s did not move on allowed methods (%v → %v): the check above would be vacuous", id, after[id], moved[id])
		}
	}
	if got := latest(); got.Equal(stored) {
		t.Errorf("the allowed insert stored nothing for %s", sensorID)
	}
}
