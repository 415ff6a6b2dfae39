package wps

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// addProcess doubles a number; it can be made to fail or block.
type addProcess struct {
	mu    sync.Mutex
	block chan struct{}
	execs int
}

func (p *addProcess) Identifier() string { return "add" }
func (p *addProcess) Title() string      { return "Adder" }
func (p *addProcess) Abstract() string   { return "Adds a and b" }
func (p *addProcess) Inputs() []ParamDesc {
	return []ParamDesc{
		{Identifier: "a", Title: "A", DataType: "double"},
		{Identifier: "b", Title: "B", DataType: "double"},
	}
}
func (p *addProcess) Outputs() []ParamDesc {
	return []ParamDesc{{Identifier: "sum", Title: "Sum", DataType: "double"}}
}
func (p *addProcess) Execute(ctx context.Context, inputs map[string]string) (map[string]string, error) {
	if p.block != nil {
		select {
		case <-p.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	p.mu.Lock()
	p.execs++
	p.mu.Unlock()
	a, err := strconv.ParseFloat(inputs["a"], 64)
	if err != nil {
		return nil, fmt.Errorf("input a: %w", err)
	}
	b, err := strconv.ParseFloat(inputs["b"], 64)
	if err != nil {
		return nil, fmt.Errorf("input b: %w", err)
	}
	return map[string]string{"sum": strconv.FormatFloat(a+b, 'g', -1, 64)}, nil
}

func newTestService(t *testing.T, procs ...Process) *httptest.Server {
	t.Helper()
	svc := NewService("EVOp WPS", Options{})
	for _, p := range procs {
		if err := svc.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	t.Cleanup(svc.Wait)
	return srv
}

func get(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp.StatusCode, string(body)
}

func TestGetCapabilities(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	code, body := get(t, srv.URL+"?service=WPS&request=GetCapabilities")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"wps:Capabilities", "<ows:Identifier>add</ows:Identifier>", "Adder"} {
		if !strings.Contains(body, want) {
			t.Fatalf("capabilities missing %q:\n%s", want, body)
		}
	}
}

func TestDescribeProcess(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	code, body := get(t, srv.URL+"?service=WPS&request=DescribeProcess&identifier=add")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"ProcessDescriptions", "<ows:Identifier>a</ows:Identifier>", "double"} {
		if !strings.Contains(body, want) {
			t.Fatalf("description missing %q:\n%s", want, body)
		}
	}
	code, body = get(t, srv.URL+"?service=WPS&request=DescribeProcess&identifier=ghost")
	if code != http.StatusNotFound || !strings.Contains(body, "ExceptionReport") {
		t.Fatalf("unknown process: %d %s", code, body)
	}
}

func TestExecuteSync(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	code, body := get(t, srv.URL+"?service=WPS&request=Execute&identifier=add&datainputs="+
		url.QueryEscape("a=2;b=3.5"))
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if !strings.Contains(body, "ProcessSucceeded") || !strings.Contains(body, "5.5") {
		t.Fatalf("execute response:\n%s", body)
	}
}

func TestExecuteSyncFailure(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	_, body := get(t, srv.URL+"?service=WPS&request=Execute&identifier=add&datainputs="+
		url.QueryEscape("a=x;b=1"))
	if !strings.Contains(body, "ProcessFailed") {
		t.Fatalf("failure response:\n%s", body)
	}
}

func TestExecuteAsyncLifecycle(t *testing.T) {
	p := &addProcess{block: make(chan struct{})}
	srv := newTestService(t, p)

	_, body := get(t, srv.URL+"?service=WPS&request=Execute&identifier=add&datainputs="+
		url.QueryEscape("a=1;b=2")+"&storeExecuteResponse=true")
	if !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("async accept:\n%s", body)
	}
	// Extract executionId attribute.
	idx := strings.Index(body, `executionId="`)
	if idx < 0 {
		t.Fatalf("no executionId:\n%s", body)
	}
	rest := body[idx+len(`executionId="`):]
	execID := rest[:strings.Index(rest, `"`)]

	// Status while blocked: accepted or started.
	_, body = get(t, srv.URL+"?service=WPS&request=GetStatus&executionid="+execID)
	if !strings.Contains(body, "Process") {
		t.Fatalf("status response:\n%s", body)
	}
	close(p.block)
	// Wait for completion then poll.
	deadline := 100
	for ; deadline > 0; deadline-- {
		_, body = get(t, srv.URL+"?service=WPS&request=GetStatus&executionid="+execID)
		if strings.Contains(body, "ProcessSucceeded") {
			break
		}
	}
	if deadline == 0 {
		t.Fatalf("async execution never succeeded:\n%s", body)
	}
	if !strings.Contains(body, "3") {
		t.Fatalf("async outputs missing:\n%s", body)
	}
}

// TestAsyncExecutionsDrainAndCloseCancels covers the serving-lifecycle
// contract: Drain waits for in-flight async executions (with a deadline),
// Close cancels the service's execution context so a ctx-observing
// process stops, and every accepted execution lands in a terminal status.
func TestAsyncExecutionsDrainAndCloseCancels(t *testing.T) {
	p := &addProcess{block: make(chan struct{})}
	svc := NewService("EVOp WPS", Options{})
	if err := svc.Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()

	_, body := get(t, srv.URL+"?service=WPS&request=Execute&identifier=add&datainputs="+
		url.QueryEscape("a=1;b=2")+"&storeExecuteResponse=true")
	if !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("async accept:\n%s", body)
	}
	idx := strings.Index(body, `executionId="`)
	rest := body[idx+len(`executionId="`):]
	execID := rest[:strings.Index(rest, `"`)]

	// Drain with a short deadline while the execution is blocked: it must
	// report the deadline, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain while blocked = %v, want deadline exceeded", err)
	}
	if n := svc.ActiveExecutions(); n != 1 {
		t.Fatalf("active executions while blocked = %d, want 1", n)
	}

	// Close cancels the execution context; the blocked process unwinds.
	svc.Close()
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Close: %v", err)
	}
	svc.Wait()
	if n := svc.ActiveExecutions(); n != 0 {
		t.Fatalf("active executions after drain = %d, want 0", n)
	}

	_, body = get(t, srv.URL+"?service=WPS&request=GetStatus&executionid="+execID)
	if !strings.Contains(body, "ProcessFailed") {
		t.Fatalf("cancelled execution status:\n%s", body)
	}
	if strings.Contains(body, "ProcessStarted") || strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("execution left non-terminal after drain:\n%s", body)
	}
}

func TestGetStatusUnknown(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	code, _ := get(t, srv.URL+"?service=WPS&request=GetStatus&executionid=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("status = %d", code)
	}
}

func TestBadRequests(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	tests := []struct {
		name  string
		query string
		code  int
	}{
		{"wrong service", "?service=WMS&request=GetCapabilities", http.StatusBadRequest},
		{"unknown request", "?service=WPS&request=Destroy", http.StatusBadRequest},
		{"execute unknown process", "?service=WPS&request=Execute&identifier=ghost", http.StatusNotFound},
		{"bad datainputs", "?service=WPS&request=Execute&identifier=add&datainputs=%3Dbroken", http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, body := get(t, srv.URL+tc.query)
			if code != tc.code {
				t.Fatalf("status = %d, want %d", code, tc.code)
			}
			if !strings.Contains(body, "ExceptionReport") {
				t.Fatalf("no exception report:\n%s", body)
			}
		})
	}
}

func TestRegisterValidation(t *testing.T) {
	svc := NewService("t", Options{})
	if err := svc.Register(&addProcess{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := svc.Register(&addProcess{}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("duplicate err = %v", err)
	}
	if got := svc.Processes(); len(got) != 1 || got[0] != "add" {
		t.Fatalf("Processes = %v", got)
	}
}

func TestParseDataInputs(t *testing.T) {
	tests := []struct {
		in      string
		want    map[string]string
		wantErr bool
	}{
		{"", map[string]string{}, false},
		{"a=1", map[string]string{"a": "1"}, false},
		{"a=1;b=two", map[string]string{"a": "1", "b": "two"}, false},
		{"a=x=y", map[string]string{"a": "x=y"}, false},
		{"a=1;;b=2", map[string]string{"a": "1", "b": "2"}, false},
		{"noequals", nil, true},
		{"=v", nil, true},
	}
	for _, tc := range tests {
		got, err := ParseDataInputs(tc.in)
		if tc.wantErr {
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("ParseDataInputs(%q) err = %v", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDataInputs(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseDataInputs(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if got[k] != v {
				t.Errorf("ParseDataInputs(%q)[%s] = %q, want %q", tc.in, k, got[k], v)
			}
		}
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusAccepted: "ProcessAccepted", StatusRunning: "ProcessStarted",
		StatusSucceeded: "ProcessSucceeded", StatusFailed: "ProcessFailed",
		Status(9): "Status(9)",
	} {
		if s.String() != want {
			t.Errorf("String = %q want %q", s.String(), want)
		}
	}
}

func TestExecuteXMLPostBinding(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	doc := `<?xml version="1.0"?>
<wps:Execute xmlns:wps="http://www.opengis.net/wps/1.0.0" xmlns:ows="http://www.opengis.net/ows/1.1">
  <ows:Identifier>add</ows:Identifier>
  <wps:DataInputs>
    <wps:Input><ows:Identifier>a</ows:Identifier><wps:Data><wps:LiteralData>4</wps:LiteralData></wps:Data></wps:Input>
    <wps:Input><ows:Identifier>b</ows:Identifier><wps:Data><wps:LiteralData>2.5</wps:LiteralData></wps:Data></wps:Input>
  </wps:DataInputs>
</wps:Execute>`
	resp, err := http.Post(srv.URL, "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "ProcessSucceeded") || !strings.Contains(string(body), "6.5") {
		t.Fatalf("response:\n%s", body)
	}
}

func TestExecuteXMLPostAsync(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	doc := `<Execute storeExecuteResponse="true">
  <Identifier>add</Identifier>
  <DataInputs>
    <Input><Identifier>a</Identifier><Data><LiteralData>1</LiteralData></Data></Input>
    <Input><Identifier>b</Identifier><Data><LiteralData>2</LiteralData></Data></Input>
  </DataInputs>
</Execute>`
	resp, err := http.Post(srv.URL, "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "ProcessAccepted") {
		t.Fatalf("async response:\n%s", body)
	}
}

func TestExecuteXMLPostErrors(t *testing.T) {
	srv := newTestService(t, &addProcess{})
	tests := []struct {
		name string
		doc  string
		code int
	}{
		{"malformed xml", "<Execute><broken", http.StatusBadRequest},
		{"no identifier", "<Execute><DataInputs></DataInputs></Execute>", http.StatusBadRequest},
		{"unknown process", "<Execute><Identifier>ghost</Identifier></Execute>", http.StatusNotFound},
		{"input without identifier", `<Execute><Identifier>add</Identifier><DataInputs>
			<Input><Data><LiteralData>1</LiteralData></Data></Input></DataInputs></Execute>`, http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL, "application/xml", strings.NewReader(tc.doc))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}
}
