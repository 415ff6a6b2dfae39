package portal

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/core"
	"evop/internal/geo"
	"evop/internal/ws"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	obs *core.Observatory
	clk *clock.Simulated
	p   *Portal
	srv *httptest.Server
}

// newFixture builds the standard fixture: an observatory on the
// simulated clock, warmed three hours, behind a test server.
func newFixture(t testing.TB) *fixture {
	t.Helper()
	clk := clock.NewSimulated(epoch)
	cfg := core.DefaultConfig(clk)
	cfg.ForcingDays = 20
	obs, err := core.New(cfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	p, err := New(obs)
	if err != nil {
		t.Fatalf("portal.New: %v", err)
	}
	obs.Start()
	t.Cleanup(obs.Stop)
	// Warm everything: instances boot, sensors sample a few hours.
	clk.Advance(3 * time.Hour)
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return &fixture{obs: obs, clk: clk, p: p, srv: srv}
}

// burst is the admission gate's per-client burst: one client may send
// this many requests before its bucket runs dry, and the simulated
// clock refills it only when a test advances it.
const burst = 2000

// clientSeq numbers the addresses nextClient hands out.
var clientSeq atomic.Uint32

// nextClient returns a RemoteAddr that no earlier call returned. Tests,
// fuzzers and benchmarks that send more than one burst spread their
// requests over clients with it; the gate's client table stays
// LRU-bounded however many they use.
func nextClient() string {
	n := clientSeq.Add(1)
	return fmt.Sprintf("10.%d.%d.%d:4242", byte(n>>16), byte(n>>8), byte(n))
}

func (f *fixture) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(f.srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func (f *fixture) post(t *testing.T, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(f.srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestNewRequiresObservatory(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil observatory accepted")
	}
}

func TestHealth(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %s", code, body)
	}
}

func TestMapLayers(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/map/layers")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	var fc geo.FeatureCollection
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatalf("not GeoJSON: %v", err)
	}
	// 3 outlets + 3 boundaries + 15 sensors.
	if len(fc.Features) != 21 {
		t.Fatalf("features = %d, want 21", len(fc.Features))
	}
	// Boundaries carry polygon outlines.
	boundaries := 0
	for _, feat := range fc.Features {
		if len(feat.Outline) > 0 {
			boundaries++
		}
	}
	if boundaries != 3 {
		t.Fatalf("polygon boundaries = %d, want 3", boundaries)
	}

	code, body = f.get(t, "/map/layers?catchment=morland")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(fc.Features) != 7 {
		t.Fatalf("morland features = %d, want 7", len(fc.Features))
	}
	for _, feat := range fc.Features {
		if feat.Properties["catchment"] != "morland" {
			t.Fatalf("leaked feature %+v", feat)
		}
	}
}

func TestSensorEndpoints(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/sensors/morland-level-1/latest")
	if code != http.StatusOK {
		t.Fatalf("latest = %d %s", code, body)
	}
	var reading struct {
		SensorID string  `json:"sensorId"`
		Value    float64 `json:"value"`
	}
	if err := json.Unmarshal(body, &reading); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if reading.SensorID != "morland-level-1" || reading.Value <= 0 {
		t.Fatalf("reading = %+v", reading)
	}

	code, body = f.get(t, "/sensors/morland-level-1/series")
	if code != http.StatusOK {
		t.Fatalf("series = %d", code)
	}
	var pairs [][2]float64
	if err := json.Unmarshal(body, &pairs); err != nil {
		t.Fatalf("series not Flot pairs: %v", err)
	}
	// 3 hours at 15-minute sampling = 12 readings.
	if len(pairs) != 12 {
		t.Fatalf("series points = %d, want 12", len(pairs))
	}

	code, _ = f.get(t, "/sensors/ghost/latest")
	if code != http.StatusNotFound {
		t.Fatalf("ghost latest = %d", code)
	}
	code, _ = f.get(t, "/sensors/morland-level-1/unknown-op")
	if code != http.StatusNotFound {
		t.Fatalf("unknown op = %d", code)
	}
}

func TestFusionWidget(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/widgets/fusion?catchment=morland")
	if code != http.StatusOK {
		t.Fatalf("fusion = %d %s", code, body)
	}
	var fused struct {
		Temperature float64 `json:"temperature"`
		Turbidity   float64 `json:"turbidity"`
		Frame       struct {
			Content []byte `json:"content"`
		} `json:"frame"`
	}
	if err := json.Unmarshal(body, &fused); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(fused.Frame.Content) == 0 {
		t.Fatal("fusion missing webcam frame")
	}
	code, _ = f.get(t, "/widgets/fusion")
	if code != http.StatusBadRequest {
		t.Fatalf("missing catchment = %d", code)
	}
	code, _ = f.get(t, "/widgets/fusion?catchment=thames")
	if code != http.StatusNotFound {
		t.Fatalf("unknown catchment = %d", code)
	}
}

func TestScenarioList(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/widgets/model/scenarios")
	if code != http.StatusOK {
		t.Fatalf("scenarios = %d", code)
	}
	var scns []struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &scns); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(scns) != 4 || scns[0].ID != "baseline" {
		t.Fatalf("scenarios = %+v", scns)
	}
}

func TestModelRunWidget(t *testing.T) {
	f := newFixture(t)
	code, body := f.post(t, "/widgets/model/run",
		`{"catchment":"morland","model":"topmodel","scenario":"compaction"}`)
	if code != http.StatusOK {
		t.Fatalf("run = %d %s", code, body)
	}
	var out struct {
		Hydrograph [][2]*float64 `json:"hydrograph"`
		PeakMm     float64       `json:"peakMm"`
		VolumeMm   float64       `json:"volumeMm"`
		Scenario   string        `json:"scenario"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Hydrograph) != 20*24 {
		t.Fatalf("hydrograph points = %d", len(out.Hydrograph))
	}
	if out.PeakMm <= 0 || out.VolumeMm <= 0 || out.Scenario != "compaction" {
		t.Fatalf("out = %+v", out)
	}

	code, _ = f.post(t, "/widgets/model/run", `{"catchment":"ghost","model":"topmodel"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown catchment = %d", code)
	}
	code, _ = f.post(t, "/widgets/model/run", `{"catchment":"morland","model":"hec-ras"}`)
	if code != http.StatusNotFound {
		t.Fatalf("unknown model = %d", code)
	}
	code, _ = f.post(t, "/widgets/model/run", `{"catchment":"morland","model":"topmodel","scenario":"urban"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown scenario = %d", code)
	}
	code, _ = f.post(t, "/widgets/model/run",
		`{"catchment":"morland","model":"topmodel","topmodelParams":{"m":-1}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad params = %d", code)
	}
	// A routing base this long would size a 32 GB unit hydrograph.
	code, _ = f.post(t, "/widgets/model/run", `{"catchment":"morland","model":"topmodel","topmodelParams":`+
		`{"m":28,"lnTe":5.5,"srMax":40,"sr0":2,"td":2,"q0":0.05,"routePeakSteps":3,"routeBaseSteps":4000000000}}`)
	if code != http.StatusBadRequest {
		t.Fatalf("routeBaseSteps 4e9 = %d", code)
	}
	// A storm longer than the 20-day forcing is refused before its
	// weights are sized: this one would allocate 20 MB of them. Served
	// in process, so the heap delta is the request's own.
	rec := httptest.NewRecorder()
	before := heapAllocBytes()
	f.p.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/widgets/model/run", strings.NewReader(
		`{"catchment":"morland","model":"topmodel","storm":{"TotalDepthMM":10,"Duration":9223372036854775807,"PeakFraction":0.4}}`)))
	if grew := heapAllocBytes() - before; rec.Code != http.StatusBadRequest || grew > 1<<20 {
		t.Fatalf("storm Duration MaxInt64 = %d after %d bytes allocated: %.200s", rec.Code, grew, rec.Body)
	}
	// An hour count past time.Duration's range would wrap around int64:
	// multiplied by time.Hour, this one put the storm at hour 48.4.
	code, body = f.post(t, "/widgets/model/run",
		`{"catchment":"morland","model":"topmodel","storm":{"TotalDepthMM":10,"Duration":3600000000000,"PeakFraction":0.4},"stormAtHours":5124144}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "stormAtHours 5124144") {
		t.Fatalf("stormAtHours 5124144 = %d %s", code, body)
	}
	code, _ = f.post(t, "/widgets/model/run", `{bad json`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad json = %d", code)
	}
	code, _ = f.get(t, "/widgets/model/run")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET run = %d", code)
	}
}

// heapAllocBytes reads the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func TestRESTAssetsServed(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/api/catchments")
	if code != http.StatusOK || !strings.Contains(string(body), "morland") {
		t.Fatalf("catchments = %d %s", code, body)
	}
	code, body = f.get(t, "/api/scenarios/afforestation")
	if code != http.StatusOK || !strings.Contains(string(body), "Woodland") {
		t.Fatalf("scenario asset = %d %s", code, body)
	}
}

func TestOGCServicesMounted(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/wps?service=WPS&request=GetCapabilities")
	if code != http.StatusOK || !strings.Contains(string(body), "topmodel") {
		t.Fatalf("wps = %d %s", code, body)
	}
	code, body = f.get(t, "/sos?service=SOS&request=GetCapabilities")
	if code != http.StatusOK || !strings.Contains(string(body), "morland-level-1") {
		t.Fatalf("sos = %d %s", code, body)
	}
}

func TestSessionPollingEndpoints(t *testing.T) {
	f := newFixture(t)
	code, body := f.post(t, "/sessions/connect?user=alice&service=topmodel", "")
	if code != http.StatusOK {
		t.Fatalf("connect = %d %s", code, body)
	}
	var s struct {
		ID    string `json:"id"`
		State int    `json:"state"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if s.ID == "" {
		t.Fatal("no session id")
	}
	code, _ = f.get(t, "/sessions/"+s.ID)
	if code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, f.srv.URL+"/sessions/"+s.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	code, _ = f.get(t, "/sessions/ghost")
	if code != http.StatusNotFound {
		t.Fatalf("ghost = %d", code)
	}
	code, _ = f.post(t, "/sessions/connect", "")
	if code != http.StatusBadRequest {
		t.Fatalf("missing params = %d", code)
	}
}

func TestWebSocketSessionChannel(t *testing.T) {
	f := newFixture(t)
	// Give the LB a warm instance so the session activates immediately.
	f.clk.Advance(2 * time.Minute)

	url := "ws" + strings.TrimPrefix(f.srv.URL, "http") + "/ws/session?user=bob&service=topmodel"
	conn, err := ws.Dial(url)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(ws.CloseNormal, "")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("ReadMessage: %v", err)
	}
	var update struct {
		Kind    string `json:"kind"`
		Session struct {
			ID           string `json:"id"`
			InstanceAddr string `json:"instanceAddr"`
		} `json:"session"`
	}
	if err := json.Unmarshal(msg.Payload, &update); err != nil {
		t.Fatalf("unmarshal push: %v", err)
	}
	if update.Kind != "assigned" {
		t.Fatalf("initial push kind = %q (session=%+v)", update.Kind, update.Session)
	}
	if update.Session.InstanceAddr == "" {
		t.Fatal("assigned session missing instance address")
	}
	// Closing the socket ends the broker session.
	conn.Close(ws.CloseNormal, "leaving")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, err := f.obs.Broker.Session(update.Session.ID)
		if err == nil && s.State.String() == "closed" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("session not closed after socket close")
}

func TestQualityWidget(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/widgets/quality?catchment=morland&scenario=compaction")
	if code != http.StatusOK {
		t.Fatalf("quality = %d %s", code, body)
	}
	var out struct {
		Scenario       string  `json:"scenario"`
		SedimentChange float64 `json:"sedimentChange"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Scenario != "compaction" || out.SedimentChange <= 0 {
		t.Fatalf("out = %+v", out)
	}
	code, _ = f.get(t, "/widgets/quality?catchment=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("unknown catchment = %d", code)
	}
}

func TestStormWindowEndpoint(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/widgets/model/storm-window?catchment=morland")
	if code != http.StatusOK {
		t.Fatalf("storm-window = %d %s", code, body)
	}
	var out struct {
		StormAtHours int `json:"stormAtHours"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.StormAtHours <= 0 {
		t.Fatalf("stormAtHours = %d", out.StormAtHours)
	}
	code, _ = f.get(t, "/widgets/model/storm-window?catchment=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("unknown catchment = %d", code)
	}
}

func TestWorkflowCompositionOverHTTP(t *testing.T) {
	f := newFixture(t)
	// The paper's "advanced user" composes a model run and a statistics
	// node into one replayable experiment.
	def := `{"name":"storm-study","nodes":[
		{"id":"run","process":"topmodel","inputs":{"catchment":"morland","scenario":"compaction"}},
		{"id":"stats","process":"hydrostats","inputs":{"hydrograph":"${run.hydrograph}"}}
	]}`
	code, body := f.post(t, "/workflows", def)
	if code != http.StatusOK {
		t.Fatalf("submit = %d %s", code, body)
	}
	var run struct {
		ID      string                       `json:"id"`
		Outputs map[string]map[string]string `json:"outputs"`
		Waves   int                          `json:"waves"`
	}
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if run.Waves != 2 {
		t.Fatalf("waves = %d, want 2", run.Waves)
	}
	if run.Outputs["stats"]["peakMm"] == "" || run.Outputs["stats"]["volumeMm"] == "" {
		t.Fatalf("stats outputs = %v", run.Outputs["stats"])
	}

	// Replay is reproducible end to end.
	code, body = f.post(t, "/workflows/"+run.ID+"/replay", "")
	if code != http.StatusOK {
		t.Fatalf("replay = %d %s", code, body)
	}
	// And listed.
	code, body = f.get(t, "/workflows")
	if code != http.StatusOK || !strings.Contains(string(body), "storm-study") {
		t.Fatalf("list = %d %s", code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(2 * time.Minute) // warm instance, some LB ticks
	m := f.scrape(t)
	sensors, ticks := m.value(t, "evop_sensors"), m.value(t, "evop_lb_ticks_total")
	private := m.value(t, `evop_instances{kind="private"}`)
	if sensors != 15 || ticks == 0 || private == 0 {
		t.Fatalf("sensors/lbTicks/privateInstances = %v/%v/%v", sensors, ticks, private)
	}
	providers := 0
	for id, s := range m {
		if s.Name != "evop_breaker_state" {
			continue
		}
		providers++
		if s.Value != 0 {
			t.Fatalf("%s = %v, want 0 (closed) on a healthy platform", id, s.Value)
		}
	}
	if providers != 2 {
		t.Fatalf("breaker state series = %d, want 2 providers", providers)
	}
}

func TestIndexPage(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/")
	if code != http.StatusOK {
		t.Fatalf("index = %d", code)
	}
	for _, want := range []string{"Environmental Virtual Observatory", "/map/layers", "/wps", "/workflows"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("index missing %q", want)
		}
	}
	code, _ = f.get(t, "/no/such/route")
	if code != http.StatusNotFound {
		t.Fatalf("unknown route = %d", code)
	}
}

func TestTimeOrDefault(t *testing.T) {
	def := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)
	if got := timeOrDefault("", def); !got.Equal(def) {
		t.Fatalf("empty = %v", got)
	}
	if got := timeOrDefault("not-a-time", def); !got.Equal(def) {
		t.Fatalf("unparsable = %v", got)
	}
	want := time.Date(2019, 7, 2, 3, 0, 0, 0, time.UTC)
	if got := timeOrDefault("2019-07-02T03:00:00Z", def); !got.Equal(want) {
		t.Fatalf("parsed = %v", got)
	}
}

func TestSensorSeriesExplicitWindow(t *testing.T) {
	f := newFixture(t)
	from := epoch.Add(time.Hour).Format(time.RFC3339)
	to := epoch.Add(2 * time.Hour).Format(time.RFC3339)
	code, body := f.get(t, "/sensors/morland-level-1/series?from="+from+"&to="+to)
	if code != http.StatusOK {
		t.Fatalf("series = %d", code)
	}
	var pairs [][2]float64
	if err := json.Unmarshal(body, &pairs); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// One hour of 15-minute sampling.
	if len(pairs) != 4 {
		t.Fatalf("points = %d, want 4", len(pairs))
	}
}

func TestSessionGetMethodNotAllowed(t *testing.T) {
	f := newFixture(t)
	req, _ := http.NewRequest(http.MethodPut, f.srv.URL+"/sessions/s1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT sessions = %d", resp.StatusCode)
	}
}

func TestWebSocketSessionRejectsBadConnect(t *testing.T) {
	f := newFixture(t)
	// Missing user/service: upgrade succeeds but the broker rejects, so
	// the server closes immediately.
	url := "ws" + strings.TrimPrefix(f.srv.URL, "http") + "/ws/session"
	conn, err := ws.Dial(url)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(ws.CloseNormal, "")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("expected close for invalid connect")
	}
}

func TestLowFlowWidget(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, "/widgets/lowflow?catchment=morland&scenario=compaction")
	if code != http.StatusOK {
		t.Fatalf("lowflow = %d %s", code, body)
	}
	var out struct {
		Scenario string `json:"scenario"`
		Summary  struct {
			Q95 float64 `json:"q95"`
			BFI float64 `json:"bfi"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if out.Scenario != "compaction" || out.Summary.Q95 <= 0 {
		t.Fatalf("out = %+v", out)
	}
	code, _ = f.get(t, "/widgets/lowflow?catchment=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("unknown catchment = %d", code)
	}
}

func TestDatasetUploadOverHTTP(t *testing.T) {
	f := newFixture(t)
	var csv strings.Builder
	csv.WriteString("time,value\n")
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 48; i++ {
		v := "0"
		if i >= 20 && i < 24 {
			v = "8"
		}
		csv.WriteString(start.Add(time.Duration(i)*time.Hour).Format(time.RFC3339) + "," + v + "\n")
	}
	code, body := f.post(t, "/datasets/upload?id=field-gauge", csv.String())
	if code != http.StatusOK {
		t.Fatalf("upload = %d %s", code, body)
	}
	// The uploaded dataset drives a model run.
	code, body = f.post(t, "/widgets/model/run",
		`{"catchment":"morland","model":"topmodel","rainDataset":"field-gauge"}`)
	if code != http.StatusOK {
		t.Fatalf("run with upload = %d %s", code, body)
	}
	var out struct {
		Hydrograph [][2]*float64 `json:"hydrograph"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Hydrograph) != 48 {
		t.Fatalf("hydrograph points = %d, want 48 (uploaded record length)", len(out.Hydrograph))
	}
	// And appears in the asset API.
	code, body = f.get(t, "/api/datasets/field-gauge")
	if code != http.StatusOK || !strings.Contains(string(body), "uploadedRainfall") {
		t.Fatalf("asset = %d %s", code, body)
	}

	// Error paths.
	code, _ = f.post(t, "/datasets/upload?id=bad", "not,a,csv")
	if code != http.StatusBadRequest {
		t.Fatalf("bad csv = %d", code)
	}
	code, _ = f.get(t, "/datasets/upload?id=x")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET upload = %d", code)
	}
}

func TestModelRunWidgetCacheHeader(t *testing.T) {
	f := newFixture(t)
	body := `{"catchment":"morland","model":"topmodel"}`
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(f.srv.URL+"/widgets/model/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	resp, b := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run = %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	resp, b = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run = %d %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit", got)
	}

	// The metrics endpoint surfaces the cache counters.
	m := f.scrape(t)
	hits, misses, size := m.value(t, "evop_runcache_hits_total"), m.value(t, "evop_runcache_misses_total"),
		m.value(t, "evop_runcache_entries")
	if hits < 1 || misses < 1 || size < 1 {
		t.Fatalf("run cache hits/misses/size = %v/%v/%v, want >= 1 each", hits, misses, size)
	}
}

func TestModelRunWidgetCoalescesConcurrentRequests(t *testing.T) {
	f := newFixture(t)
	// A classroom of users pressing "run" on the same widget at once: every
	// response must be complete and identical, and the cache must have
	// computed the simulation once (the rest hit or coalesced).
	const clients = 12
	body := `{"catchment":"tarland","model":"fuse","scenario":"afforestation"}`
	var wg sync.WaitGroup
	bodies := make([][]byte, clients)
	outcomes := make([]string, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(f.srv.URL+"/widgets/model/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			outcomes[i] = resp.Header.Get("X-Cache")
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(bodies[i]) == 0 {
			t.Fatalf("client %d: empty body", i)
		}
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("client %d: response differs from client 0", i)
		}
		switch outcomes[i] {
		case "miss", "hit", "coalesced":
		default:
			t.Fatalf("client %d: X-Cache = %q", i, outcomes[i])
		}
	}
	m := f.scrape(t)
	if misses := m.value(t, "evop_runcache_misses_total"); misses != 1 {
		t.Fatalf("misses = %v, want exactly 1 simulation for %d identical requests", misses, clients)
	}
	if got := m.value(t, "evop_runcache_hits_total") + m.value(t, "evop_runcache_coalesced_total"); got != clients-1 {
		t.Fatalf("hits+coalesced = %v, want %d", got, clients-1)
	}
}
