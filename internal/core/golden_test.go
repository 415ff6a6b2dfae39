package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The digests below are the sha256 of response bodies recorded from
// the WPS and workflow services before process outputs became typed
// (map[string]string outputs, the hydrograph a FlotJSON string and the
// ExecuteResponse written by encoding/xml). The wire must not change:
// every document is compared byte for byte, indentation included.
var goldenWPS = map[string]string{
	"capabilities":      "ab9bfe11f04ebd219f379b4693ae2811847656f5700218e52c585a88ffb839f5",
	"describe-topmodel": "955862eba60c2d75e1d950aef1949df40431669bdfb2489a9159e56b007b91a8",
	"describe-fuse":     "ff375f8dbeef1562231ceb701a794259c5f40ee301d764c5f82ddb99c4841be7",
	"sync-topmodel":     "da80eb551fd15d0417d2569727a9a2ffe010f1c0392db448feccc0a01b2c5372",
	"sync-fuse":         "a1adeff625116c972a4c1e51e44094968c91fa36aa361dc841917624c706ec5b",
	"sync-failed":       "54d94e2ea8ca5b3dd8c8261ff57e96daacf847afad789971c6b1b6524e94d917",
	"async-accepted":    "afcabdabf75c6b0894dd774d1047b9e274e346fd9051359f28cef8bfcdeedbdf",
	"status-topmodel":   "df560170b0e63b0b656a0d959cecda6a0c2c2272d77befd52f7745a3fbde1b38",
	"status-fuse":       "3ecf6c46cf7ea29f53b8ba099dfb1e3bf43bd5f3c8cfc6f8a3910b36494a4970",
	"status-failed":     "1a035e01c57fdf5761de672f68a78beba386fe740e0bda4368354c917920708e",
}

// goldenWorkflow pins a topmodel → hydrostats run: the submitted run's
// JSON, the same run fetched back and after one replay, each node's
// trace fingerprint and the hydrostats results as text.
var (
	goldenWorkflowBodies = map[string]string{
		"submit": "62877ba8c80ceb8ff9741990256bd68e985a9191d9c3e4291ce5e1f1b738a7e0",
		"get":    "62877ba8c80ceb8ff9741990256bd68e985a9191d9c3e4291ce5e1f1b738a7e0",
		"replay": "d63e2f0377f5ca31083047a886b19c33ed26ec063bfacbbe2fb62b834a42ea40",
	}
	goldenFingerprints = map[string]string{
		"run":   "3aee6f994bfeacb1",
		"stats": "1d24847128abe20b",
	}
	goldenStats = map[string]string{
		"meanMm":   "0.49054098200542745",
		"peakMm":   "7.134555593360341",
		"volumeMm": "353.1895070439078",
	}
)

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func serve(t *testing.T, h http.Handler, method, target, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s = %d %s", method, target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func TestWPSDocumentsMatchGolden(t *testing.T) {
	o, _ := newObs(t)
	const kvp = "/wps?service=WPS&request="
	storm := "%3BstormDepthMm%3D50%3BstormHours%3D6%3BstormAtHours%3D240"
	targets := []struct{ name, target string }{
		{"capabilities", kvp + "GetCapabilities"},
		{"describe-topmodel", kvp + "DescribeProcess&identifier=topmodel"},
		{"describe-fuse", kvp + "DescribeProcess&identifier=fuse"},
		{"sync-topmodel", kvp + "Execute&identifier=topmodel&datainputs=catchment%3Dmorland%3Bscenario%3Dcompaction" + storm},
		{"sync-fuse", kvp + "Execute&identifier=fuse&datainputs=catchment%3Dtarland"},
		{"sync-failed", kvp + "Execute&identifier=topmodel&datainputs=catchment%3Dghost%3Cx%3E"},
		{"async-accepted", kvp + "Execute&identifier=topmodel&storeExecuteResponse=true&datainputs=catchment%3Dmorland%3Bscenario%3Dcompaction" + storm},
		{"", kvp + "Execute&identifier=fuse&storeExecuteResponse=true&datainputs=catchment%3Dtarland"},
		{"", kvp + "Execute&identifier=topmodel&storeExecuteResponse=true&datainputs=catchment%3Dghost%3Cx%3E"},
	}
	got := map[string]string{}
	for _, tc := range targets {
		body := serve(t, o.WPS, http.MethodGet, tc.target, "")
		if tc.name != "" {
			got[tc.name] = digest(body)
		}
	}
	o.WPS.Wait()
	for i, name := range []string{"status-topmodel", "status-fuse", "status-failed"} {
		got[name] = digest(serve(t, o.WPS, http.MethodGet,
			kvp+"GetStatus&executionid=e"+string(rune('1'+i)), ""))
	}
	for name, want := range goldenWPS {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}

func TestWorkflowRunMatchesGolden(t *testing.T) {
	o, _ := newObs(t)
	def := `{"name":"storm-study","nodes":[
		{"id":"run","process":"topmodel","inputs":{"catchment":"morland","scenario":"compaction","stormDepthMm":"50","stormAtHours":"240"}},
		{"id":"stats","process":"hydrostats","inputs":{"hydrograph":"${run.hydrograph}"}}
	]}`
	submit := serve(t, o.Workflows, http.MethodPost, "/workflows", def)
	get := serve(t, o.Workflows, http.MethodGet, "/workflows/wf1", "")
	replay := serve(t, o.Workflows, http.MethodPost, "/workflows/wf1/replay", "")
	var run struct {
		Outputs map[string]map[string]string `json:"outputs"`
		Trace   []struct {
			Node        string `json:"node"`
			Fingerprint string `json:"fingerprint"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(submit, &run); err != nil {
		t.Fatalf("run JSON: %v", err)
	}
	bodies := map[string]string{"submit": digest(submit), "get": digest(get), "replay": digest(replay)}
	for name, want := range goldenWorkflowBodies {
		if bodies[name] != want {
			t.Errorf("%s body: digest %s, want %s", name, bodies[name], want)
		}
	}
	fps := map[string]string{}
	for _, e := range run.Trace {
		fps[e.Node] = e.Fingerprint
	}
	for node, want := range goldenFingerprints {
		if fps[node] != want {
			t.Errorf("node %s fingerprint %s, want %s", node, fps[node], want)
		}
	}
	for k, want := range goldenStats {
		if got := run.Outputs["stats"][k]; got != want {
			t.Errorf("hydrostats %s = %q, want %q", k, got, want)
		}
	}
}
