package portal

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"evop/internal/metrics"
	"evop/internal/rest"
)

// This file is the portal's request pipeline: every request — widget,
// REST, OGC or WebSocket — passes through panic recovery, request-ID
// assignment, an in-flight gauge, access logging and per-endpoint
// instrumentation before reaching its handler, and every handler receives
// the request's context so abandoning the request abandons the work.

// RequestIDHeader carries the request correlation ID. Inbound values are
// propagated (so a fronting proxy's IDs survive); otherwise the portal
// assigns one. Every response carries the header.
const RequestIDHeader = "X-Request-ID"

// StatusClientClosedRequest is recorded when the client abandoned the
// request before a response was produced (nginx's 499 convention).
const StatusClientClosedRequest = 499

// ridPrefix distinguishes portal processes; ridCounter distinguishes
// requests within one.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "portal"
		}
		return hex.EncodeToString(b[:])
	}()
	ridCounter atomic.Uint64
)

func newRequestID() string {
	return fmt.Sprintf("%s-%06d", ridPrefix, ridCounter.Add(1))
}

// statusRecorder captures the response status for logging and metrics.
// It forwards Hijack so the WebSocket upgrade keeps working; a hijacked
// connection is recorded as 101.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	hijacked bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := sr.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("portal: response writer cannot hijack")
	}
	conn, rw, err := hj.Hijack()
	if err == nil {
		sr.hijacked = true
		if sr.status == 0 {
			sr.status = http.StatusSwitchingProtocols
		}
	}
	return conn, rw, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status reports the recorded status, defaulting to 200 for handlers
// that wrote a body without an explicit WriteHeader, and 0 only when no
// response was produced at all.
func (sr *statusRecorder) Status() int {
	if sr.status == 0 {
		return http.StatusOK
	}
	return sr.status
}

// endpointInstruments holds one route's registered instruments: a
// latency histogram (whose count is the request count) and an error
// counter.
type endpointInstruments struct {
	latency *metrics.Histogram
	errors  *metrics.Counter
}

// handle registers a handler under the portal's per-endpoint
// instrumentation, keyed by the route pattern. All registration happens
// in New, before the portal serves traffic.
func (p *Portal) handle(pattern string, h http.Handler) {
	inst := &endpointInstruments{
		latency: p.reg.Histogram("evop_http_request_seconds",
			"HTTP request latency by route.", metrics.DurationScale,
			metrics.L("route", pattern)),
		errors: p.reg.Counter("evop_http_request_errors_total",
			"HTTP requests answered 4xx/5xx, or that produced no response.",
			metrics.L("route", pattern)),
	}
	pol := policyFor(pattern)
	if pol.mode != modeExempt && pol.mode != modeRateOnly {
		// This route's p95 feeds the adaptive concurrency limit.
		// WebSocket routes are excluded: a connection's "latency" is its
		// lifetime, which would poison the percentile.
		p.obs.Admission.Watch(inst.latency)
	}
	p.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			// Recorded latency includes any admission queue wait — the
			// client paid for it, so the histogram reports it.
			inst.latency.RecordSince(start)
			status := 0
			if sr, ok := w.(*statusRecorder); ok {
				status = sr.status // raw: 0 means "nothing written" (a panic)
			}
			if status == 0 || status >= 400 {
				inst.errors.Inc()
			}
		}()
		r, release, ok := p.admit(w, r, pol)
		if !ok {
			return
		}
		if release != nil {
			defer release()
		}
		h.ServeHTTP(w, r)
	}))
}

func (p *Portal) handleFunc(pattern string, h http.HandlerFunc) {
	p.handle(pattern, h)
}

// SetLogger directs access and lifecycle logging (discarded by default).
// Call before the portal serves traffic.
func (p *Portal) SetLogger(l *log.Logger) {
	if l != nil {
		p.logger = l
	}
}

// ServeHTTP implements http.Handler: the pipeline wraps every route.
func (p *Portal) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := r.Header.Get(RequestIDHeader)
	if rid == "" {
		rid = newRequestID()
	}
	w.Header().Set(RequestIDHeader, rid)
	rec := &statusRecorder{ResponseWriter: w}
	p.inflight.Add(1)
	start := time.Now()
	defer func() {
		p.inflight.Add(-1)
		if v := recover(); v != nil {
			p.panics.Inc()
			p.logger.Printf("panic %s %s rid=%s: %v\n%s", r.Method, r.URL.Path, rid, v, debug.Stack())
			if rec.status == 0 && !rec.hijacked {
				rest.WriteJSON(rec, http.StatusInternalServerError,
					map[string]string{"error": "internal error", "requestId": rid})
			}
		}
		p.logger.Printf("%s %s %d %v rid=%s", r.Method, r.URL.Path, rec.Status(),
			time.Since(start).Round(time.Microsecond), rid)
	}()
	p.mux.ServeHTTP(rec, r)
}
