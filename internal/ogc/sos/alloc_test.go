//go:build !race

// The race detector drops pooled buffers at random, so allocation
// counts hold only without it.

package sos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestInsertObservationAllocs bounds the allocations of one canonical
// insert through the handler (the fast path, the ingest and the
// appended response): the body string, the bounded reader, the result,
// the Content-Type value and the history's amortised growth. The
// encoding/xml handler took 77 on the same bodies.
func TestInsertObservationAllocs(t *testing.T) {
	svc, _, clk := insertService(t)
	const runs = 200
	bodies, _ := insertBodies(runs+1, clk.Now())
	w := nopWriter{h: make(http.Header)}
	var rd strings.Reader
	req := httptest.NewRequest(http.MethodPost, "/sos", nil)
	req.Body = io.NopCloser(&rd)
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		rd.Reset(bodies[i])
		i++
		svc.ServeHTTP(w, req)
	})
	if got > 4 {
		t.Fatalf("canonical insert allocates %.1f per request, want <= 4", got)
	}
}
