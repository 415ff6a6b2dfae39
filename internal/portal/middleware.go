package portal

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"evop/internal/rest"
)

// This file is the portal's request pipeline: every request — widget,
// REST, OGC or WebSocket — passes through panic recovery, request-ID
// assignment, an in-flight gauge, access logging and per-endpoint
// instrumentation before reaching its handler, and every handler receives
// the request's context so abandoning the request abandons the work.

// RequestIDHeader carries the request correlation ID. Inbound values are
// propagated (so a fronting proxy's IDs survive); otherwise the portal
// assigns one. Every response carries the header. It is spelt the way
// net/http stores and writes the key, so neither reading nor writing it
// builds a canonical copy.
const RequestIDHeader = "X-Request-Id"

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

// newRequestID returns "<ridPrefix>-<counter>", the counter zero-padded
// to at least six digits; the string is its only allocation.
func newRequestID() string {
	var buf [32]byte
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], ridCounter.Add(1), 10)
	b := append(append(buf[:0], ridPrefix...), '-')
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
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

// SetLogger directs access and lifecycle logging (discarded by default).
// Call before the portal serves traffic. A logger that writes to
// io.Discard gets no access lines: they are not even formatted.
func (p *Portal) SetLogger(l *log.Logger) {
	if l != nil {
		p.logger = l
		p.accessLog = l.Writer() != io.Discard
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
		if p.accessLog {
			p.logger.Printf("%s %s %d %v rid=%s", r.Method, r.URL.Path, rec.Status(),
				time.Since(start).Round(time.Microsecond), rid)
		}
	}()
	p.mux.ServeHTTP(rec, r)
}
