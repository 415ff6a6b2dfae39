package wps

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/metrics"
	"evop/internal/sched"
)

const asyncExec = "?service=WPS&request=Execute&identifier=add&storeExecuteResponse=true&datainputs="

// TestAsyncBoundRejects pins the concurrency bound: past MaxAsync
// in-flight executions, async Execute requests get a ServerBusy
// exception instead of an unbounded goroutine.
func TestAsyncBoundRejects(t *testing.T) {
	p := &addProcess{block: make(chan struct{})}
	clk := clock.NewSimulated(time.Unix(0, 0))
	reg := metrics.NewRegistry(clk)
	svc := NewService("EVOp WPS", Options{Metrics: reg, MaxAsync: 1})
	if err := svc.Register(p); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+asyncExec+url.QueryEscape("a=1;b=2"))
	if code != http.StatusOK || !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("first accept: %d\n%s", code, body)
	}
	code, body = get(t, srv.URL+asyncExec+url.QueryEscape("a=3;b=4"))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "ServerBusy") {
		t.Fatalf("over-bound request: %d, want 503 ServerBusy\n%s", code, body)
	}
	if svc.ActiveExecutions() != 1 {
		t.Fatalf("active = %d, want 1 (rejection must not register)", svc.ActiveExecutions())
	}

	close(p.block)
	svc.Wait()
	// Capacity freed: accepted again, and the rejection was counted.
	code, body = get(t, srv.URL+asyncExec+url.QueryEscape("a=5;b=6"))
	if code != http.StatusOK || !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("post-drain accept: %d\n%s", code, body)
	}
	svc.Wait()
	for _, m := range reg.Snapshot().Metrics {
		switch m.SeriesID() {
		case "evop_wps_rejected_total":
			if m.Value != 1 {
				t.Fatalf("rejected_total = %v, want 1", m.Value)
			}
		case "evop_wps_queue_depth":
			if m.Value != 0 {
				t.Fatalf("queue_depth = %v after drain, want 0", m.Value)
			}
		}
	}
}

// TestAsyncRunsOnPool: with a compute pool configured, async executions
// run as bulk-class pool tasks and still complete the normal lifecycle.
func TestAsyncRunsOnPool(t *testing.T) {
	pool, err := sched.New(sched.Config{Workers: 2})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(pool.Close)
	svc := NewService("EVOp WPS", Options{Pool: pool})
	if err := svc.Register(&addProcess{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+asyncExec+url.QueryEscape("a=2;b=5"))
	if code != http.StatusOK || !strings.Contains(body, "ProcessAccepted") {
		t.Fatalf("accept: %d\n%s", code, body)
	}
	svc.Wait()
	idx := strings.Index(body, `executionId="`)
	rest := body[idx+len(`executionId="`):]
	execID := rest[:strings.Index(rest, `"`)]
	_, body = get(t, srv.URL+"?service=WPS&request=GetStatus&executionid="+execID)
	if !strings.Contains(body, "ProcessSucceeded") || !strings.Contains(body, "7") {
		t.Fatalf("pool-backed execution status:\n%s", body)
	}
}

// TestAsyncPoolSaturationUnregisters: when the pool itself refuses the
// task, the client sees ServerBusy and the half-registered execution is
// rolled back — no orphan in the status table, no stuck WaitGroup.
func TestAsyncPoolSaturationUnregisters(t *testing.T) {
	pool, err := sched.New(sched.Config{Workers: 1, MaxAsync: 1})
	if err != nil {
		t.Fatalf("sched.New: %v", err)
	}
	t.Cleanup(pool.Close)
	block := make(chan struct{})
	started := make(chan struct{})
	if err := pool.TrySubmit(sched.ClassBulk, func() { close(started); <-block }); err != nil {
		t.Fatalf("blocker: %v", err)
	}
	<-started

	svc := NewService("EVOp WPS", Options{Pool: pool})
	if err := svc.Register(&addProcess{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)

	code, body := get(t, srv.URL+asyncExec+url.QueryEscape("a=1;b=1"))
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "ServerBusy") {
		t.Fatalf("saturated pool: %d, want 503 ServerBusy\n%s", code, body)
	}
	if svc.ActiveExecutions() != 0 {
		t.Fatalf("active = %d, want 0 (rollback)", svc.ActiveExecutions())
	}
	close(block)
	svc.Wait() // must not hang: the rolled-back execution released the wg
}
