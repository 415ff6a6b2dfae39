package workflow

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"evop/internal/ogc/wps"
)

// funcProcess is a workflow process made from a function of the
// inputs' text to literal outputs.
type funcProcess struct {
	name string
	fn   func(ctx context.Context, in map[string]string) (map[string]string, error)
}

func (p funcProcess) Identifier() string       { return p.name }
func (p funcProcess) Title() string            { return p.name }
func (p funcProcess) Abstract() string         { return "" }
func (p funcProcess) Inputs() []wps.ParamDesc  { return nil }
func (p funcProcess) Outputs() []wps.ParamDesc { return nil }
func (p funcProcess) Execute(ctx context.Context, in map[string]wps.Value) (map[string]wps.Value, error) {
	text := make(map[string]string, len(in))
	for k, v := range in {
		text[k] = v.String()
	}
	out, err := p.fn(ctx, text)
	if err != nil || out == nil {
		return nil, err
	}
	vals := make(map[string]wps.Value, len(out))
	for k, v := range out {
		vals[k] = wps.Literal(v)
	}
	return vals, nil
}

// testService registers simple arithmetic processes.
func testService(t *testing.T) *Service {
	t.Helper()
	s := NewService(testPool(t, 2))
	mustRegister := func(name string, fn func(context.Context, map[string]string) (map[string]string, error)) {
		t.Helper()
		if err := s.RegisterProcess(funcProcess{name, fn}); err != nil {
			t.Fatalf("RegisterProcess(%s): %v", name, err)
		}
	}
	mustRegister("const", func(_ context.Context, in map[string]string) (map[string]string, error) {
		return map[string]string{"value": in["value"]}, nil
	})
	mustRegister("double", func(_ context.Context, in map[string]string) (map[string]string, error) {
		v, err := strconv.Atoi(in["value"])
		if err != nil {
			return nil, err
		}
		return map[string]string{"value": strconv.Itoa(v * 2)}, nil
	})
	mustRegister("add", func(_ context.Context, in map[string]string) (map[string]string, error) {
		a, err := strconv.Atoi(in["a"])
		if err != nil {
			return nil, err
		}
		b, err := strconv.Atoi(in["b"])
		if err != nil {
			return nil, err
		}
		return map[string]string{"sum": strconv.Itoa(a + b)}, nil
	})
	return s
}

func pipelineDef() Definition {
	return Definition{
		Name: "arith",
		Nodes: []NodeDef{
			{ID: "x", Process: "const", Inputs: map[string]string{"value": "5"}},
			{ID: "y", Process: "const", Inputs: map[string]string{"value": "7"}},
			{ID: "x2", Process: "double", Inputs: map[string]string{"value": "${x.value}"}},
			{ID: "total", Process: "add", Inputs: map[string]string{"a": "${x2.value}", "b": "${y.value}"}},
		},
	}
}

func TestRegisterProcessValidation(t *testing.T) {
	s := NewService(nil)
	ok := func(context.Context, map[string]string) (map[string]string, error) { return nil, nil }
	for _, p := range []wps.Process{nil, funcProcess{"", ok}} {
		if err := s.RegisterProcess(p); !errors.Is(err, ErrBadDefinition) {
			t.Fatalf("empty registration %v: err = %v", p, err)
		}
	}
	if err := s.RegisterProcess(funcProcess{"p", ok}); err != nil {
		t.Fatalf("RegisterProcess: %v", err)
	}
	if err := s.RegisterProcess(funcProcess{"p", ok}); !errors.Is(err, ErrBadDefinition) {
		t.Fatalf("duplicate err = %v", err)
	}
}

func TestExecuteDataflowReferences(t *testing.T) {
	s := testService(t)
	run, err := s.Execute(context.Background(), pipelineDef())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if run.Outputs["total"]["sum"] != wps.Literal("17") {
		t.Fatalf("total = %v, want 17 (5*2+7)", run.Outputs["total"])
	}
	if run.Waves != 3 {
		t.Fatalf("waves = %d, want 3", run.Waves)
	}
	if run.ID == "" {
		t.Fatal("run has no ID")
	}
}

func TestExecuteDefinitionErrors(t *testing.T) {
	s := testService(t)
	tests := []struct {
		name string
		def  Definition
	}{
		{"no name", Definition{Nodes: []NodeDef{{ID: "a", Process: "const"}}}},
		{"no nodes", Definition{Name: "x"}},
		{"unknown process", Definition{Name: "x", Nodes: []NodeDef{{ID: "a", Process: "nope"}}}},
		{"missing ref node", Definition{Name: "x", Nodes: []NodeDef{
			{ID: "a", Process: "double", Inputs: map[string]string{"value": "${ghost.value}"}},
		}}},
		{"cycle via after", Definition{Name: "x", Nodes: []NodeDef{
			{ID: "a", Process: "const", After: []string{"b"}},
			{ID: "b", Process: "const", After: []string{"a"}},
		}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Execute(context.Background(), tc.def); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestExecuteBadReferenceOutput(t *testing.T) {
	s := testService(t)
	def := Definition{Name: "x", Nodes: []NodeDef{
		{ID: "a", Process: "const", Inputs: map[string]string{"value": "1"}},
		{ID: "b", Process: "double", Inputs: map[string]string{"value": "${a.missing}"}},
	}}
	if _, err := s.Execute(context.Background(), def); !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("missing output err = %v", err)
	}
}

func TestReplayStoredRun(t *testing.T) {
	s := testService(t)
	run, err := s.Execute(context.Background(), pipelineDef())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	again, err := s.Replay(context.Background(), run.ID)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if again.Replays != 1 {
		t.Fatalf("replays = %d", again.Replays)
	}
	if _, err := s.Replay(context.Background(), "ghost"); !errors.Is(err, ErrBadDefinition) {
		t.Fatalf("unknown run err = %v", err)
	}
}

func TestReplayDetectsNondeterministicProcess(t *testing.T) {
	s := NewService(nil)
	var n atomic.Int64
	s.RegisterProcess(funcProcess{"flaky", func(context.Context, map[string]string) (map[string]string, error) {
		return map[string]string{"v": strconv.FormatInt(n.Add(1), 10)}, nil
	}})
	run, err := s.Execute(context.Background(), Definition{
		Name: "f", Nodes: []NodeDef{{ID: "a", Process: "flaky"}},
	})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if _, err := s.Replay(context.Background(), run.ID); !errors.Is(err, ErrNotReproducible) {
		t.Fatalf("Replay err = %v", err)
	}
}

func TestHTTPLifecycle(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	// Submit.
	def := `{"name":"arith","nodes":[
		{"id":"x","process":"const","inputs":{"value":"5"}},
		{"id":"x2","process":"double","inputs":{"value":"${x.value}"}}
	]}`
	resp, err := http.Post(srv.URL+"/workflows", "application/json", strings.NewReader(def))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"value":"10"`) {
		t.Fatalf("run output missing: %s", body)
	}
	idIdx := strings.Index(string(body), `"id":"wf`)
	if idIdx < 0 {
		t.Fatalf("no run id: %s", body)
	}
	runID := "wf1"

	// List.
	resp, _ = http.Get(srv.URL + "/workflows")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"name":"arith"`) {
		t.Fatalf("list = %s", body)
	}

	// Fetch.
	resp, _ = http.Get(srv.URL + "/workflows/" + runID)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "trace") {
		t.Fatalf("fetch = %d %s", resp.StatusCode, body)
	}

	// Replay.
	resp, _ = http.Post(srv.URL+"/workflows/"+runID+"/replay", "application/json", nil)
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"replays":1`) {
		t.Fatalf("replay = %d %s", resp.StatusCode, body)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	resp, _ := http.Post(srv.URL+"/workflows", "application/json", strings.NewReader("{bad"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d", resp.StatusCode)
	}
	resp, _ = http.Get(srv.URL + "/workflows/ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost run = %d", resp.StatusCode)
	}
	resp, _ = http.Post(srv.URL+"/workflows/ghost/replay", "application/json", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ghost replay = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/workflows", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
}

// TestHTTPMethods pins the binding's per-path methods: HEAD is served
// like GET, and every refused method answers 405 with that path's Allow.
func TestHTTPMethods(t *testing.T) {
	s := testService(t)
	if _, err := s.Execute(context.Background(), Definition{
		Name: "c", Nodes: []NodeDef{{ID: "x", Process: "const", Inputs: map[string]string{"value": "1"}}},
	}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	tests := []struct {
		method, target string
		status         int
		allow          string
	}{
		{http.MethodHead, "/workflows", http.StatusOK, ""},
		{http.MethodHead, "/workflows/wf1", http.StatusOK, ""},
		{http.MethodHead, "/workflows/ghost", http.StatusNotFound, ""},
		{http.MethodPut, "/workflows", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{http.MethodGet, "/workflows/wf1/replay", http.StatusMethodNotAllowed, "POST"},
		{http.MethodDelete, "/workflows/wf1/replay", http.StatusMethodNotAllowed, "POST"},
		{http.MethodPost, "/workflows/wf1", http.StatusMethodNotAllowed, "GET, HEAD"},
		{http.MethodPatch, "/workflows/wf1", http.StatusMethodNotAllowed, "GET, HEAD"},
	}
	for _, tc := range tests {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, nil))
		if w.Code != tc.status || w.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s = %d, Allow %q; want %d, Allow %q",
				tc.method, tc.target, w.Code, w.Header().Get("Allow"), tc.status, tc.allow)
		}
	}
}

func TestParseRef(t *testing.T) {
	tests := []struct {
		in        string
		node, out string
		ok        bool
	}{
		{"${a.b}", "a", "b", true},
		{"${run.hydrograph}", "run", "hydrograph", true},
		{"literal", "", "", false},
		{"${nodot}", "", "", false},
		{"${.x}", "", "", false},
		{"${x.}", "", "", false},
		{"${a.b", "", "", false},
	}
	for _, tc := range tests {
		node, out, ok := parseRef(tc.in)
		if node != tc.node || out != tc.out || ok != tc.ok {
			t.Errorf("parseRef(%q) = %q,%q,%v", tc.in, node, out, ok)
		}
	}
}

// TestHTTPBodies pins the HTTP binding's exact responses — status,
// Content-Type and body bytes — for a success and for every error
// status it answers.
func TestHTTPBodies(t *testing.T) {
	s := testService(t)
	var n atomic.Int64
	if err := s.RegisterProcess(funcProcess{"counter", func(context.Context, map[string]string) (map[string]string, error) {
		return map[string]string{"v": strconv.FormatInt(n.Add(1), 10)}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		method, target, body string
		status               int
		want                 string
	}{
		{http.MethodPost, "/workflows", `{"name":"f","nodes":[{"id":"a","process":"counter"}]}`, http.StatusOK,
			`{"id":"wf1","definition":{"name":"f","nodes":[{"id":"a","process":"counter"}]},"outputs":{"a":{"v":"1"}},"trace":[{"node":"a","wave":0,"inputs":[],"fingerprint":"14ee4c1b105815f8"}],"waves":1,"replays":0}`},
		{http.MethodGet, "/workflows", "", http.StatusOK,
			`[{"id":"wf1","name":"f","nodes":1,"waves":1,"replays":0}]`},
		{http.MethodPost, "/workflows", `{bad`, http.StatusBadRequest,
			`{"error":"invalid JSON: invalid character 'b' looking for beginning of object key string"}`},
		{http.MethodPost, "/workflows", `{"name":"` + strings.Repeat("x", maxDefinitionBytes) + `"}`, http.StatusRequestEntityTooLarge,
			`{"error":"definition exceeds 1048576 bytes"}`},
		{http.MethodPost, "/workflows", `{"name":"e","nodes":[{"id":"a","process":"nope"}]}`, http.StatusBadRequest,
			`{"error":"node a: unknown process \"nope\": workflow: invalid definition"}`},
		{http.MethodPost, "/workflows/wf1/replay", "", http.StatusConflict,
			`{"error":"node a fingerprint fbcbd51b0259b385 != reference 14ee4c1b105815f8: workflow: replay mismatch"}`},
		{http.MethodPost, "/workflows/ghost/replay", "", http.StatusBadRequest,
			`{"error":"run \"ghost\": workflow: invalid definition"}`},
		{http.MethodGet, "/workflows/ghost", "", http.StatusNotFound,
			`{"error":"no run ghost"}`},
		{http.MethodDelete, "/workflows", "", http.StatusMethodNotAllowed,
			`{"error":"DELETE not supported"}`},
	}
	for _, tc := range tests {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if w.Code != tc.status || w.Header().Get("Content-Type") != "application/json" || w.Body.String() != tc.want+"\n" {
			t.Errorf("%s %s = %d %q %s, want %d application/json %s",
				tc.method, tc.target, w.Code, w.Header().Get("Content-Type"), w.Body.String(), tc.status, tc.want)
		}
	}
}

// TestRunHistoryBounded pins the run retention: past retainedRuns, each
// new run forgets the oldest, which then answers GET 404 and replay 400
// as an unknown ID does, while the newest still replays.
func TestRunHistoryBounded(t *testing.T) {
	s := testService(t)
	def := Definition{Name: "c", Nodes: []NodeDef{{ID: "x", Process: "const", Inputs: map[string]string{"value": "1"}}}}
	const total = retainedRuns + 6
	for i := 0; i < total; i++ {
		if _, err := s.Execute(context.Background(), def); err != nil {
			t.Fatalf("Execute %d: %v", i, err)
		}
	}
	runs := s.Runs()
	if len(runs) != retainedRuns || runs[0].ID != "wf7" || runs[len(runs)-1].ID != "wf"+strconv.Itoa(total) {
		t.Fatalf("Runs() = %d runs, %s to %s; want %d, wf7 to wf%d",
			len(runs), runs[0].ID, runs[len(runs)-1].ID, retainedRuns, total)
	}
	for i := 1; i <= 6; i++ {
		id := "wf" + strconv.Itoa(i)
		if w := serve(s, http.MethodGet, "/workflows/"+id, ""); w.Code != http.StatusNotFound {
			t.Errorf("GET evicted %s = %d, want 404", id, w.Code)
		}
		if w := serve(s, http.MethodPost, "/workflows/"+id+"/replay", ""); w.Code != http.StatusBadRequest {
			t.Errorf("replay evicted %s = %d, want 400", id, w.Code)
		}
	}
	newest := "wf" + strconv.Itoa(total)
	if w := serve(s, http.MethodPost, "/workflows/"+newest+"/replay", ""); w.Code != http.StatusOK {
		t.Fatalf("replay %s = %d %s", newest, w.Code, w.Body)
	}
}
