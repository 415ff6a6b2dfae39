package portal

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkSeriesDegraded measures the series read path's overload
// fallback: the coarse-rollup representation must stay cheap — it is
// what the portal serves precisely when it can least afford work.
func BenchmarkSeriesDegraded(b *testing.B) {
	f := newFixture(b)
	f.clk.Advance(21 * time.Hour) // a full day of history behind the 3h warm-up

	req := httptest.NewRequest(http.MethodGet, "/sensors/morland-level-1/series", nil)
	req = req.WithContext(context.WithValue(req.Context(), degradedKey{}, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		f.p.sensorSeries(rec, req, "morland-level-1")
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
	}
}

// BenchmarkModelRunHandler measures a cached model-run answer through
// Portal.ServeHTTP — middleware, admission, cache hit and the streamed
// hydrograph — into a reused writer that discards the body, so B/op
// and allocs/op are the portal's own cost per response.
func BenchmarkModelRunHandler(b *testing.B) {
	f := newFixture(b)
	const run = `{"catchment":"morland","model":"topmodel"}`
	req := httptest.NewRequest(http.MethodPost, "/widgets/model/run", nil)
	body := new(rewindBody)
	w := &discardWriter{header: make(http.Header)}
	serve := func() {
		body.Reset(run)
		req.Body = body
		w.status = 0
		f.p.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status = %d", w.status)
		}
	}
	serve() // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rotateClient(b, i, req)
		serve()
	}
	b.StopTimer()
	if c := w.header.Get("X-Cache"); c != "hit" {
		b.Fatalf("X-Cache = %q, want hit", c)
	}
}

// rewindBody is a request body a benchmark rewinds between iterations.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a reusable ResponseWriter that keeps the status and
// headers and drops the body.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header { return d.header }

func (d *discardWriter) WriteHeader(code int) { d.status = code }

func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// rotateClient moves req to a fresh client, with the timer stopped,
// before iteration i could find its client's bucket empty.
func rotateClient(b *testing.B, i int, req *http.Request) {
	if i%burst == 0 {
		b.StopTimer()
		req.RemoteAddr = nextClient()
		b.StartTimer()
	}
}

// BenchmarkPublicDocuments measures the stored public documents — the
// map overview, one catchment's layer and the scenario list — through
// Portal.ServeHTTP into a reused writer that discards the body.
func BenchmarkPublicDocuments(b *testing.B) {
	f := newFixture(b)
	for _, bc := range []struct{ name, target string }{
		{"overview", "/map/layers"},
		{"catchment", "/map/layers?catchment=morland"},
		{"scenarios", "/widgets/model/scenarios"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, bc.target, nil)
			w := &discardWriter{header: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rotateClient(b, i, req)
				w.status = 0
				f.p.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status = %d", w.status)
				}
			}
		})
	}
}
