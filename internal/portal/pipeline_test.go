package portal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"evop/internal/broker"
	"evop/internal/clock"
	"evop/internal/core"
	"evop/internal/runcache"
	"evop/internal/ws"
)

// --- request pipeline: IDs, logging, metrics, recovery ---

func TestRequestIDAssignedAndPropagated(t *testing.T) {
	f := newFixture(t)
	resp, err := http.Get(f.srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get(RequestIDHeader); rid == "" {
		t.Fatal("response missing X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, f.srv.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "proxy-trace-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET with inbound id: %v", err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get(RequestIDHeader); rid != "proxy-trace-42" {
		t.Fatalf("inbound request ID not propagated: got %q", rid)
	}
}

type lockedBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func TestAccessLogging(t *testing.T) {
	f := newFixture(t)
	buf := &lockedBuf{}
	f.p.SetLogger(log.New(buf, "", 0))
	f.get(t, "/healthz")
	// The access line is written after the response is flushed; poll.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		s := buf.String()
		if strings.Contains(s, "GET /healthz 200") && strings.Contains(s, "rid=") {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no access log line for /healthz, got:\n%s", buf.String())
}

// TestAccessLogLine holds each access line to "METHOD path status
// duration rid=ID" for a propagated and an assigned ID, 2xx, 4xx, 5xx
// and a recovered panic.
func TestAccessLogLine(t *testing.T) {
	f := newFixture(t)
	f.p.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	f.p.mux.HandleFunc("/unavailable", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})
	var buf bytes.Buffer
	f.p.SetLogger(log.New(&buf, "", 0))
	for _, tc := range []struct {
		path, rid string
		status    int
	}{
		{"/healthz", "proxy-trace-42", http.StatusOK},
		{"/healthz", "", http.StatusOK},
		{"/sensors/ghost/latest", "", http.StatusNotFound},
		{"/unavailable", "edge-7", http.StatusServiceUnavailable},
		{"/boom", "", http.StatusInternalServerError},
	} {
		buf.Reset()
		req := httptest.NewRequest(http.MethodGet, tc.path, nil)
		if tc.rid != "" {
			req.Header.Set("X-Request-ID", tc.rid) // a client's spelling
		}
		rec := httptest.NewRecorder()
		f.p.ServeHTTP(rec, req)
		rid := rec.Header().Get(RequestIDHeader)
		if rec.Code != tc.status || rid == "" || tc.rid != "" && rid != tc.rid {
			t.Fatalf("GET %s = %d rid %q, want %d rid %q", tc.path, rec.Code, rid, tc.status, tc.rid)
		}
		// A panic logs its own line and stack first; the access line is last.
		out := strings.TrimSuffix(buf.String(), "\n")
		line := out[strings.LastIndexByte(out, '\n')+1:]
		fields := strings.Fields(line)
		if len(fields) != 5 {
			t.Fatalf("GET %s logged %q", tc.path, line)
		}
		d, err := time.ParseDuration(fields[3])
		if err != nil {
			t.Fatalf("GET %s logged duration %q: %v", tc.path, fields[3], err)
		}
		if want := fmt.Sprintf("%s %s %d %v rid=%s", http.MethodGet, tc.path, tc.status, d, rid); line != want {
			t.Fatalf("access line %q, want %q", line, want)
		}
	}
}

// TestRequestIDFormat holds newRequestID to the fmt formula it replaced,
// at the counter values around the zero padding's width and at the top
// of the counter's range.
func TestRequestIDFormat(t *testing.T) {
	saved := ridCounter.Load()
	defer ridCounter.Store(saved)
	for _, n := range []uint64{1, 999_999, 1_000_000, math.MaxUint64} {
		ridCounter.Store(n - 1)
		if got, want := newRequestID(), fmt.Sprintf("%s-%06d", ridPrefix, n); got != want {
			t.Fatalf("newRequestID at %d = %q, want %q", n, got, want)
		}
	}
}

func TestMetricsReportRequestPipeline(t *testing.T) {
	f := newFixture(t)
	f.get(t, "/healthz")
	f.get(t, "/healthz")
	f.get(t, "/sensors/ghost/latest") // 404: counts as an endpoint error
	m := f.scrape(t)
	if got := m.value(t, "evop_sensors"); got != 15 {
		t.Fatalf("infra metrics lost: sensors = %v", got)
	}
	// The /metrics request itself is in flight while the snapshot is taken.
	if got := m.value(t, "evop_http_in_flight"); got < 1 {
		t.Fatalf("inFlight = %v, want >= 1", got)
	}
	if got := m.get(t, `evop_http_request_seconds{route="/healthz"}`).Histogram.Count; got < 2 {
		t.Fatalf("/healthz requests = %d, want >= 2", got)
	}
	if got := m.value(t, `evop_http_request_errors_total{route="/sensors/"}`); got < 1 {
		t.Fatalf("/sensors/ errors = %v, want >= 1", got)
	}
	if _, ok := m[`evop_http_request_seconds{route="/widgets/model/run"}`]; !ok {
		t.Fatal("registered endpoint missing from metrics")
	}
}

func TestPanicRecovery(t *testing.T) {
	f := newFixture(t)
	f.p.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	resp, err := http.Get(f.srv.URL + "/boom")
	if err != nil {
		t.Fatalf("GET /boom: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("panic body = %s", body)
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("panicked response missing request ID")
	}
	// The server survives.
	if code, _ := f.get(t, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after panic = %d", code)
	}
	if got := f.scrape(t).value(t, "evop_http_panics_total"); got < 1 {
		t.Fatalf("panics = %v, want >= 1", got)
	}
}

// --- satellite: bounded uploads ---

func TestUploadTooLargeAnswers413(t *testing.T) {
	f := newFixture(t)
	big := strings.Repeat("x", maxUploadBytes+1024)
	resp, err := http.Post(f.srv.URL+"/datasets/upload?id=big", "text/csv", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload = %d %s, want 413", resp.StatusCode, body)
	}
}

// --- satellite: session leak when Subscribe fails after Connect ---

type subscribeFailBroker struct {
	sessionBroker
}

func (subscribeFailBroker) Subscribe(string) (<-chan broker.Update, error) {
	return nil, errors.New("injected subscribe failure")
}

func TestSessionSocketSubscribeFailureEndsSession(t *testing.T) {
	f := newFixture(t)
	f.p.broker = subscribeFailBroker{f.p.broker}
	url := "ws" + strings.TrimPrefix(f.srv.URL, "http") + "/ws/session?user=carol&service=topmodel"
	conn, err := ws.Dial(url)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close(ws.CloseNormal, "")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("expected close after subscribe failure")
	}
	// The regression: the connected broker session must not be left alive
	// with nobody attached.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.obs.Broker.LiveCount() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("leaked broker session: %d live after subscribe failure", f.obs.Broker.LiveCount())
}

// --- cancellation semantics through the HTTP surface ---

func TestClientDisconnectAbandonsModelRun(t *testing.T) {
	f := newFixture(t)
	entered := make(chan struct{}, 1)
	flightCanceled := make(chan struct{})
	f.obs.SetRunHook(func(ctx context.Context, _ core.RunRequest) error {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			close(flightCanceled)
			return ctx.Err()
		case <-time.After(30 * time.Second):
			return nil
		}
	})
	defer f.obs.SetRunHook(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, f.srv.URL+"/widgets/model/run",
		strings.NewReader(`{"catchment":"morland","model":"topmodel"}`))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = errors.New("request unexpectedly completed")
		}
		errCh <- err
	}()
	<-entered
	cancel() // the user closes the tab
	if err := <-errCh; err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	// The simulation must stop consuming CPU: its flight context cancels.
	select {
	case <-flightCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation kept running after its only client disconnected")
	}
	// The abandoned waiter counts itself just after cancelling the
	// flight, so the counter may trail flightCanceled by a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := f.scrape(t).value(t, "evop_runcache_canceled_total")
		if got >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache canceled = %v, want >= 1", got)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDisconnectedDuplicateDoesNotKillConnectedRequest(t *testing.T) {
	f := newFixture(t)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	f.obs.SetRunHook(func(ctx context.Context, _ core.RunRequest) error {
		entered <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	defer f.obs.SetRunHook(nil)

	const body = `{"catchment":"tarland","model":"topmodel"}`
	// Client A starts the flight, then disconnects.
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	reqA, _ := http.NewRequestWithContext(ctxA, http.MethodPost, f.srv.URL+"/widgets/model/run",
		strings.NewReader(body))
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		if resp, err := http.DefaultClient.Do(reqA); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	// Client B joins the same flight and stays connected.
	type result struct {
		status  int
		outcome string
		body    []byte
		err     error
	}
	bCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(f.srv.URL+"/widgets/model/run", "application/json",
			strings.NewReader(body))
		if err != nil {
			bCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		bCh <- result{status: resp.StatusCode, outcome: resp.Header.Get("X-Cache"), body: b, err: err}
	}()
	// Wait until B has actually joined before disconnecting A.
	deadline := time.Now().Add(5 * time.Second)
	for f.scrape(t).value(t, "evop_runcache_coalesced_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second client never coalesced onto the flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancelA()
	<-aDone
	// A's client gave up, but the server-side handler observes the
	// cancellation asynchronously; wait for it to be counted before
	// releasing the flight, or its select could see completion first.
	for f.scrape(t).value(t, "evop_runcache_canceled_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("disconnected client was never counted as canceled")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	res := <-bCh
	if res.err != nil {
		t.Fatalf("connected client: %v", res.err)
	}
	if res.status != http.StatusOK {
		t.Fatalf("connected client status = %d %s", res.status, res.body)
	}
	if res.outcome != runcache.Coalesced.String() {
		t.Fatalf("connected client X-Cache = %q, want coalesced", res.outcome)
	}
	var out struct {
		Hydrograph [][2]*float64 `json:"hydrograph"`
	}
	if err := json.Unmarshal(res.body, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(out.Hydrograph) != 20*24 {
		t.Fatalf("connected client got truncated hydrograph: %d points", len(out.Hydrograph))
	}
	m := f.scrape(t)
	misses, canceled := m.value(t, "evop_runcache_misses_total"), m.value(t, "evop_runcache_canceled_total")
	if misses != 1 || canceled != 1 {
		t.Fatalf("cache misses/canceled = %v/%v, want 1/1", misses, canceled)
	}
}

// --- graceful shutdown drains in-flight work ---

func TestGracefulShutdownDrainsWPSAndInFlight(t *testing.T) {
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

	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	obs.SetRunHook(func(ctx context.Context, _ core.RunRequest) error {
		entered <- struct{}{}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- p.ServeContext(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// An asynchronous WPS execution, blocked in the hook.
	resp, err := http.Get(base + "/wps?service=WPS&request=Execute&identifier=topmodel" +
		"&datainputs=catchment%3Dmorland&storeExecuteResponse=true")
	if err != nil {
		t.Fatalf("async execute: %v", err)
	}
	ab, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(ab), "ProcessAccepted") {
		t.Fatalf("async accept:\n%s", ab)
	}
	// An in-flight synchronous widget request, also blocked.
	syncRes := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/widgets/model/run", "application/json",
			strings.NewReader(`{"catchment":"tarland","model":"topmodel"}`))
		if err != nil {
			syncRes <- 0
			return
		}
		resp.Body.Close()
		syncRes <- resp.StatusCode
	}()
	<-entered
	<-entered

	cancel() // the SIGTERM analogue
	// Shutdown is now waiting on both; finish the work and verify
	// everything drains cleanly.
	time.Sleep(50 * time.Millisecond)
	close(release)
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("ServeContext: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graceful shutdown hung")
	}
	if code := <-syncRes; code != http.StatusOK {
		t.Fatalf("in-flight request during shutdown = %d, want 200", code)
	}
	if n := obs.MetricsRegistry().Gauge("evop_wps_queue_depth", "").Value(); n != 0 {
		t.Fatalf("async executions left non-terminal after shutdown: %d", n)
	}
}
