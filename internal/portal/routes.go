package portal

import (
	"net/http"
	"slices"
	"strings"
	"time"

	"evop/internal/admission"
	"evop/internal/metrics"
	"evop/internal/rest"
)

// The route table machinery: New declares each route once, and handle
// is the one place in the package that checks a request's method
// (ci.sh fails on method comparisons elsewhere).

// The method lists routes declare, in Allow header order. A route that
// takes GET takes HEAD too, except a WebSocket upgrade, which RFC 6455
// defines as a GET.
var (
	getHead          = []string{http.MethodGet, http.MethodHead}
	getOnly          = []string{http.MethodGet}
	postOnly         = []string{http.MethodPost}
	getHeadPost      = []string{http.MethodGet, http.MethodHead, http.MethodPost}
	getHeadPutDelete = []string{http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete}
)

// route is one entry of the portal's route table.
type route struct {
	pattern string // ServeMux pattern, and the route label on evop_http_* series
	methods []string
	class   admission.Class
	mode    admitMode
	h       http.HandlerFunc
}

// allows reports whether the route takes r's method. The catch-all "/"
// serves only "/" itself by method: any other path it receives matches
// no route, and index answers 404 for it whatever the method.
func (rt *route) allows(r *http.Request) bool {
	return slices.Contains(rt.methods, r.Method) || (rt.pattern == "/" && r.URL.Path != "/")
}

// byMethod builds a route whose methods take different handlers: its
// methods are the keys of hs, in Allow order, so each is declared once.
func byMethod(pattern string, class admission.Class, mode admitMode, hs map[string]http.HandlerFunc) route {
	methods := slices.DeleteFunc([]string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete},
		func(m string) bool { return hs[m] == nil })
	return route{pattern, methods, class, mode, func(w http.ResponseWriter, r *http.Request) { hs[r.Method](w, r) }}
}

// handle mounts one route under the portal's per-endpoint
// instrumentation, keyed by the route pattern. A method the route does not
// list is answered 405 with Allow before admission, so it takes no rate
// token or slot. All registration happens in New, before the portal
// serves traffic.
func (p *Portal) handle(rt *route) {
	// The latency histogram's count is the route's request count.
	latency := p.reg.Histogram("evop_http_request_seconds",
		"HTTP request latency by route.", metrics.DurationScale, metrics.L("route", rt.pattern))
	errs := p.reg.Counter("evop_http_request_errors_total",
		"HTTP requests answered 4xx/5xx, or that produced no response.", metrics.L("route", rt.pattern))
	if rt.mode != modeExempt && rt.mode != modeRateOnly {
		// This route's p95 feeds the adaptive concurrency limit.
		// WebSocket routes are excluded: a connection's "latency" is its
		// lifetime, which would poison the percentile.
		p.obs.Admission.Watch(latency)
	}
	allow := strings.Join(rt.methods, ", ")
	p.mux.Handle(rt.pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer func() {
			// Recorded latency includes any admission queue wait — the
			// client paid for it, so the histogram reports it.
			latency.RecordSince(start)
			status := 0
			if sr, ok := w.(*statusRecorder); ok {
				status = sr.status // raw: 0 means "nothing written" (a panic)
			}
			if status == 0 || status >= 400 {
				errs.Inc()
			}
		}()
		if !rt.allows(r) {
			w.Header().Set("Allow", allow)
			rest.WriteError(w, http.StatusMethodNotAllowed, r.Method+" not supported")
			return
		}
		r, held, ok := p.admit(w, r, rt)
		if !ok {
			return
		}
		if held {
			defer p.obs.Admission.Release(rt.class)
		}
		rt.h(w, r)
	}))
}
