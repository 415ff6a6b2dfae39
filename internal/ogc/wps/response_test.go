package wps

import (
	"context"
	"net/http"
	"net/http/httptest"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"evop/internal/timeseries"
)

// heldProcess answers every execution with a series it already holds,
// as a model process answers a cached run.
type heldProcess struct{ held *timeseries.Series }

func (p *heldProcess) Identifier() string   { return "held" }
func (p *heldProcess) Title() string        { return "Held series" }
func (p *heldProcess) Abstract() string     { return "Returns the series it holds" }
func (p *heldProcess) Inputs() []ParamDesc  { return nil }
func (p *heldProcess) Outputs() []ParamDesc { return nil }
func (p *heldProcess) Execute(context.Context, map[string]Value) (map[string]Value, error) {
	return map[string]Value{"hydrograph": SeriesValue(p.held), "peakMm": Literal("1.5")}, nil
}

func heldSeries(n int) *timeseries.Series {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%97) * 0.0123456789
	}
	return timeseries.MustNew(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour, vals)
}

// discardWriter is a ResponseWriter that keeps nothing, so only the
// service's own allocations are counted.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// TestExecuteSyncAllocs pins that a synchronous Execute streams the
// series its process holds: the heap bytes per request are bounded and
// do not grow with the series, where a document built as text would
// take ~48 bytes per point.
func TestExecuteSyncAllocs(t *testing.T) {
	perRequest := func(n int) uint64 {
		svc := newService(t, nil)
		if err := svc.Register(&heldProcess{held: heldSeries(n)}); err != nil {
			t.Fatalf("Register: %v", err)
		}
		req := httptest.NewRequest(http.MethodGet, "/wps?service=WPS&request=Execute&identifier=held&datainputs=catchment%3Dmorland", nil)
		w := &discardWriter{h: http.Header{}}
		svc.ServeHTTP(w, req)
		// The least of five batches: the counter is process-wide, and
		// the runtime's own allocations land in some batch or other.
		const batches, runs = 5, 100
		least := uint64(1 << 63)
		for b := 0; b < batches; b++ {
			before := heapAllocBytes()
			for i := 0; i < runs; i++ {
				svc.ServeHTTP(w, req)
			}
			least = min(least, (heapAllocBytes()-before)/runs)
		}
		return least
	}
	small, large := perRequest(500), perRequest(5000)
	t.Logf("heap bytes per Execute: %d at 500 points, %d at 5,000", small, large)
	if large > 16<<10 {
		t.Fatalf("Execute of a 5,000-point series allocated %d bytes, want ≤ 16 KiB", large)
	}
	if large > small+1024 {
		t.Fatalf("Execute allocated %d bytes at 5,000 points against %d at 500: grows with the series", large, small)
	}
}

// TestAsyncExecutionHoldsSeries pins that a succeeded asynchronous
// execution keeps the process's *Series itself, not a copy or its text,
// and that GetStatus streams it as the Flot document.
func TestAsyncExecutionHoldsSeries(t *testing.T) {
	held := heldSeries(500)
	svc := newService(t, nil)
	if err := svc.Register(&heldProcess{held: held}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/wps?service=WPS&request=Execute&identifier=held&storeExecuteResponse=true", nil))
	if !strings.Contains(rec.Body.String(), `executionId="e1"`) {
		t.Fatalf("async accept:\n%s", rec.Body)
	}
	svc.Wait()
	svc.mu.RLock()
	got := svc.execs["e1"].outputs["hydrograph"].Series()
	svc.mu.RUnlock()
	if got != held {
		t.Fatalf("succeeded execution holds %p, want the process's series %p", got, held)
	}
	rec = httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/wps?service=WPS&request=GetStatus&executionid=e1", nil))
	flot, _ := held.FlotJSON()
	if !strings.Contains(rec.Body.String(), "<wps:LiteralData>"+string(flot)+"</wps:LiteralData>") {
		t.Fatalf("GetStatus does not carry the series' Flot text:\n%.400s", rec.Body)
	}
}

// TestTerminalExecutionsBounded: past retainedExecutions terminal
// executions the oldest are forgotten — GetStatus answers 404 for them
// and the table stops growing — while the newest still returns its
// outputs. A running execution is never evicted.
func TestTerminalExecutionsBounded(t *testing.T) {
	held := heldSeries(50)
	svc := newService(t, nil)
	blocked := &addProcess{block: make(chan struct{})}
	for _, p := range []Process{&heldProcess{held: held}, blocked} {
		if err := svc.Register(p); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	serve := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/wps?service=WPS&"+query, nil))
		return rec
	}
	waitFor := func(id string, want Status) {
		t.Helper()
		for {
			svc.mu.RLock()
			ex, ok := svc.execs[id]
			done := ok && ex.status == want
			svc.mu.RUnlock()
			if done {
				return
			}
			if !ok {
				t.Fatalf("%s missing while waiting for %v", id, want)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// e1 stays running across every eviction.
	serve("request=Execute&identifier=add&datainputs=a%3D1%3Bb%3D2&storeExecuteResponse=true")
	waitFor("e1", StatusRunning)
	const extra = 7
	last := 1 + retainedExecutions + extra
	for i := 2; i <= last; i++ {
		if rec := serve("request=Execute&identifier=held&storeExecuteResponse=true"); rec.Code != http.StatusOK {
			t.Fatalf("execution e%d: %d\n%s", i, rec.Code, rec.Body)
		}
		waitFor("e"+strconv.Itoa(i), StatusSucceeded)
	}
	svc.mu.RLock()
	n := len(svc.execs)
	svc.mu.RUnlock()
	if want := retainedExecutions + 1; n != want {
		t.Fatalf("%d executions retained, want %d (the bound plus the running one)", n, want)
	}
	for i := 2; i < 2+extra; i++ {
		rec := serve("request=GetStatus&executionid=e" + strconv.Itoa(i))
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "InvalidParameterValue") {
			t.Fatalf("evicted e%d: %d\n%s", i, rec.Code, rec.Body)
		}
	}
	if rec := serve("request=GetStatus&executionid=e" + strconv.Itoa(2+extra)); rec.Code != http.StatusOK {
		t.Fatalf("oldest retained e%d: %d\n%s", 2+extra, rec.Code, rec.Body)
	}
	newest := serve("request=GetStatus&executionid=e" + strconv.Itoa(last))
	flot, _ := held.FlotJSON()
	if newest.Code != http.StatusOK || !strings.Contains(newest.Body.String(), "<wps:LiteralData>"+string(flot)+"</wps:LiteralData>") {
		t.Fatalf("newest execution: %d\n%.400s", newest.Code, newest.Body)
	}
	if rec := serve("request=GetStatus&executionid=e1"); !strings.Contains(rec.Body.String(), "ProcessStarted") {
		t.Fatalf("running execution evicted or not running:\n%s", rec.Body)
	}
	close(blocked.block)
	svc.Wait()
}
