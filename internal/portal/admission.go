package portal

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"evop/internal/admission"
	"evop/internal/metrics"
	"evop/internal/rest"
)

// This file wires the admission controller into the request pipeline:
// each route table entry in New declares a priority class and an
// admission mode, sheds answer 429/503 with a Retry-After hint and a
// machine-readable body, and the two degradable routes fall back to a
// cheaper representation (marked with X-Degraded) instead of shedding
// when their class is saturated.

// DegradedHeader marks a response served in degraded form; its value
// names the fallback ("stale-cache", "coarse-rollup").
const DegradedHeader = "X-Degraded"

// admitMode is what the pipeline does with a route's admission verdict.
type admitMode uint8

const (
	// modeGate takes a rate-limit token and a concurrency slot, queueing
	// briefly when the class is saturated.
	modeGate admitMode = iota
	// modeRateOnly applies only the per-client rate limit — WebSocket
	// upgrades outlive any reasonable slot lease.
	modeRateOnly
	// modeDegrade is modeGate without the queue: a saturated request is
	// flagged for the handler to serve a degraded representation.
	modeDegrade
	// modeExempt bypasses admission: health and observability must stay
	// reachable precisely when the system is drowning.
	modeExempt
)

// degradedKey flags a request the handler should serve degraded.
type degradedKey struct{}

// degraded reports whether admission flagged this request for a
// degraded response.
func degraded(r *http.Request) bool {
	v, _ := r.Context().Value(degradedKey{}).(bool)
	return v
}

// clientKey derives the rate-limit key from the peer address, dropping
// the ephemeral port so one browser is one bucket.
func clientKey(remoteAddr string) string {
	if i := strings.LastIndexByte(remoteAddr, ':'); i >= 0 && !strings.HasSuffix(remoteAddr, "]") {
		return remoteAddr[:i]
	}
	return remoteAddr
}

// admissionInstruments holds the portal-side admission counters; the
// controller's own evop_admission_* metrics live in the controller.
type admissionInstruments struct {
	degraded map[string]*metrics.Counter
}

func newAdmissionInstruments(reg *metrics.Registry) admissionInstruments {
	c := func(mode string) *metrics.Counter {
		return reg.Counter("evop_admission_degraded_total",
			"Responses served in degraded form instead of being shed.",
			metrics.L("mode", mode))
	}
	return admissionInstruments{degraded: map[string]*metrics.Counter{
		"stale-cache":   c("stale-cache"),
		"coarse-rollup": c("coarse-rollup"),
	}}
}

// markDegraded stamps the response header and counts the fallback.
func (p *Portal) markDegraded(w http.ResponseWriter, mode string) {
	w.Header().Set(DegradedHeader, mode)
	if ctr, ok := p.admitInst.degraded[mode]; ok {
		ctr.Inc()
	}
}

// admit runs a route's admission posture. It returns the (possibly
// re-contexted) request, whether it holds a slot of the route's class
// (the caller releases it), and ok=false when the request was shed and
// answered.
func (p *Portal) admit(w http.ResponseWriter, r *http.Request, rt *route) (_ *http.Request, held, ok bool) {
	ctrl := p.obs.Admission
	if rt.mode == modeExempt {
		return r, false, true
	}
	client := clientKey(r.RemoteAddr)
	switch rt.mode {
	case modeRateOnly:
		if retry, err := ctrl.AllowRate(rt.class, client); err != nil {
			p.writeShed(w, rt.class, retry, err)
			return r, false, false
		}
		return r, false, true
	case modeDegrade:
		retry, err := ctrl.TryAdmit(rt.class, client)
		switch {
		case err == nil:
			return r, true, true
		case errors.Is(err, admission.ErrSaturated):
			// Flag for the handler; it serves a degraded representation
			// (or sheds itself if none is available).
			return r.WithContext(context.WithValue(r.Context(), degradedKey{}, true)), false, true
		default:
			p.writeShed(w, rt.class, retry, err)
			return r, false, false
		}
	default: // modeGate
		if retry, err := ctrl.Admit(r.Context(), rt.class, client); err != nil {
			p.writeShed(w, rt.class, retry, err)
			return r, false, false
		}
		return r, true, true
	}
}

// writeShed answers a shed request: 429 for a rate limit, 503 for
// saturation (or a dead request context), always with a Retry-After
// hint and a machine-readable body.
func (p *Portal) writeShed(w http.ResponseWriter, cl admission.Class, retry time.Duration, err error) {
	if retry <= 0 {
		retry = admission.RetryAfter
	}
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	status := http.StatusServiceUnavailable
	if errors.Is(err, admission.ErrRateLimited) {
		status = http.StatusTooManyRequests
	}
	rest.WriteJSON(w, status, map[string]any{
		"error":             err.Error(),
		"class":             cl.String(),
		"retryAfterSeconds": secs,
	})
}
