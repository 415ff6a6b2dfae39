package portal

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"evop/internal/admission"
	"evop/internal/ws"
)

// doRaw issues a request and returns the full response (the fixture's
// get/post helpers discard headers, which these tests assert on).
func (f *fixture) doRaw(t *testing.T, method, path, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, f.srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest %s %s: %v", method, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestOversizedBodies413 sweeps every body-accepting route: a body past
// the route's bound answers 413, never OOM, never a hung read.
func TestOversizedBodies413(t *testing.T) {
	f := newFixture(t)
	// A syntactically valid JSON prefix, so the decoders keep reading
	// until the byte bound trips (garbage would 400 on the first byte).
	bigJSON := `{"a":"` + strings.Repeat("x", (1<<20)+2) + `"}`
	cases := []struct {
		name, method, path, body string
	}{
		{"model-run", http.MethodPost, "/widgets/model/run", bigJSON},
		{"wps-execute", http.MethodPost, "/wps", strings.Repeat("x", (1<<20)+2)},
		{"sos-insert", http.MethodPost, "/sos", strings.Repeat("x", (64<<10)+2)},
		{"rest-put", http.MethodPut, "/api/datasets/big", bigJSON},
		{"workflow-submit", http.MethodPost, "/workflows", bigJSON},
	}
	for _, tc := range cases {
		resp := f.doRaw(t, tc.method, tc.path, tc.body)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413", tc.name, resp.StatusCode)
		}
	}
}

// shedBody is the machine-readable shed response.
type shedBody struct {
	Error             string `json:"error"`
	Class             string `json:"class"`
	RetryAfterSeconds int    `json:"retryAfterSeconds"`
}

func decodeShed(t *testing.T, resp *http.Response) shedBody {
	t.Helper()
	var sb shedBody
	if err := json.NewDecoder(resp.Body).Decode(&sb); err != nil {
		t.Fatalf("decoding shed body: %v", err)
	}
	return sb
}

// saturate holds class cl's admission slots until TryAdmit sheds, and
// hands them back when the test ends. At the gate's starting limit of
// 64 that is 44 model slots or 54 live ones.
func (f *fixture) saturate(t *testing.T, cl admission.Class) {
	t.Helper()
	held := 0
	t.Cleanup(func() {
		for ; held > 0; held-- {
			f.obs.Admission.Release(cl)
		}
	})
	for {
		_, err := f.obs.Admission.TryAdmit(cl, "holder")
		if errors.Is(err, admission.ErrSaturated) {
			return
		}
		if err != nil {
			t.Fatalf("holding slot %d: %v", held, err)
		}
		held++
	}
}

// drainBucket spends what is left of the test server's client's burst
// (every request through f.srv comes from its loopback address).
func (f *fixture) drainBucket(t *testing.T) {
	t.Helper()
	client := clientKey(f.srv.Listener.Addr().String())
	for n := 0; ; n++ {
		if _, err := f.obs.Admission.AllowRate(admission.Live, client); err != nil {
			return
		}
		if n > burst {
			t.Fatalf("%s still has tokens after %d requests", client, n)
		}
	}
}

func TestRateLimitSheds429(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 2; i++ {
		if code, body := f.get(t, "/map/layers"); code != http.StatusOK {
			t.Fatalf("request %d within burst: %d %s", i, code, body)
		}
	}
	f.drainBucket(t)
	resp := f.doRaw(t, http.MethodGet, "/map/layers", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	sb := decodeShed(t, resp)
	if sb.Class != "live" || sb.RetryAfterSeconds < 1 || sb.Error == "" {
		t.Fatalf("shed body = %+v", sb)
	}
	// Liveness and observability stay reachable through the storm.
	if code, body := f.get(t, "/healthz"); code != http.StatusOK || string(body) != "{\"status\":\"ok\"}\n" {
		t.Fatalf("healthz sheddable: %d %q", code, body)
	}
	if code, _ := f.get(t, "/metrics"); code != http.StatusOK {
		t.Fatalf("metrics sheddable: %d", code)
	}
	// Tokens refill on the (simulated) clock.
	f.clk.Advance(2 * time.Second)
	if code, _ := f.get(t, "/map/layers"); code != http.StatusOK {
		t.Fatalf("after refill: %d", code)
	}
}

func TestModelRunStaleCacheDegrade(t *testing.T) {
	f := newFixture(t)
	run := `{"catchment":"morland","model":"topmodel"}`
	resp := f.doRaw(t, http.MethodPost, "/widgets/model/run", run)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: %d", resp.StatusCode)
	}
	if h := resp.Header.Get(DegradedHeader); h != "" {
		t.Fatalf("fresh run marked degraded %q", h)
	}

	// Saturate the model class: it now has no slot.
	f.saturate(t, admission.Model)

	// Same family (catchment+scenario+model+dataset), different storm
	// placement: served from the stale family index, marked degraded.
	resp = f.doRaw(t, http.MethodPost, "/widgets/model/run",
		`{"catchment":"morland","model":"topmodel","stormAtHours":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded run: %d", resp.StatusCode)
	}
	if h := resp.Header.Get(DegradedHeader); h != "stale-cache" {
		t.Fatalf("X-Degraded = %q, want stale-cache", h)
	}
	if h := resp.Header.Get("X-Cache"); h != "stale" {
		t.Fatalf("X-Cache = %q, want stale", h)
	}
	var out struct {
		Hydrograph json.RawMessage `json:"hydrograph"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out.Hydrograph) == 0 {
		t.Fatalf("degraded body unusable: %v", err)
	}

	// A family never run has nothing stale to serve: shed with 503.
	resp = f.doRaw(t, http.MethodPost, "/widgets/model/run",
		`{"catchment":"tarland","model":"topmodel"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unseen family: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if sb := decodeShed(t, resp); sb.Class != "model" {
		t.Fatalf("shed class = %q, want model", sb.Class)
	}
}

// TestModelRunStaleCacheRefusesBadRequests: under model-class
// saturation a request the healthy path refuses gets the same status,
// not its family's stale run; a valid one still gets the stale 200.
func TestModelRunStaleCacheRefusesBadRequests(t *testing.T) {
	f := newFixture(t)
	bad := []struct {
		body string
		want int
	}{
		{`{"catchment":"morland","model":"topmodel","topmodelParams":{"m":-1}}`, http.StatusBadRequest},
		{`{"catchment":"morland","model":"topmodel","stormAtHours":5124144}`, http.StatusBadRequest},
		{`{"catchment":"morland","model":"topmodel","topmodelParams":{"m":-1},"stormAtHours":5124144}`, http.StatusBadRequest},
		{`{"catchment":"morland","model":"topmodel","storm":{"totalDepthMm":-5}}`, http.StatusBadRequest},
		{`{"catchment":"morland","model":"topmodel","scenario":"paved"}`, http.StatusBadRequest},
		{`{"catchment":"nowhere","model":"topmodel"}`, http.StatusNotFound},
		{`{"catchment":"morland","model":"hbv"}`, http.StatusNotFound},
	}
	status := func(body string) int {
		t.Helper()
		resp := f.doRaw(t, http.MethodPost, "/widgets/model/run", body)
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, tc := range bad {
		if got := status(tc.body); got != tc.want {
			t.Fatalf("healthy %s: %d, want %d", tc.body, got, tc.want)
		}
	}
	if got := status(`{"catchment":"morland","model":"topmodel"}`); got != http.StatusOK {
		t.Fatalf("fresh run: %d", got)
	}

	f.saturate(t, admission.Model)
	for _, tc := range bad {
		resp := f.doRaw(t, http.MethodPost, "/widgets/model/run", tc.body)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != tc.want || resp.Header.Get(DegradedHeader) != "" {
			t.Fatalf("saturated %s: %d degraded=%q, want %d as when healthy",
				tc.body, resp.StatusCode, resp.Header.Get(DegradedHeader), tc.want)
		}
	}
	resp := f.doRaw(t, http.MethodPost, "/widgets/model/run",
		`{"catchment":"morland","model":"topmodel","stormAtHours":7}`)
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(DegradedHeader) != "stale-cache" {
		t.Fatalf("valid saturated run: %d degraded=%q, want 200 stale-cache",
			resp.StatusCode, resp.Header.Get(DegradedHeader))
	}
}

func TestSeriesCoarseRollupDegrade(t *testing.T) {
	f := newFixture(t)
	// The fixture warmed 3h; extend to a full day of history.
	f.clk.Advance(21 * time.Hour)

	resp := f.doRaw(t, http.MethodGet, "/sensors/morland-level-1/series", "")
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(DegradedHeader) != "" {
		t.Fatalf("healthy series: %d degraded=%q", resp.StatusCode, resp.Header.Get(DegradedHeader))
	}
	if resp.Header.Get("ETag") == "" {
		t.Fatal("healthy series response lost its validators")
	}

	f.saturate(t, admission.Live)

	resp = f.doRaw(t, http.MethodGet, "/sensors/morland-level-1/series", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded series: %d", resp.StatusCode)
	}
	if h := resp.Header.Get(DegradedHeader); h != "coarse-rollup" {
		t.Fatalf("X-Degraded = %q, want coarse-rollup", h)
	}
	if resp.Header.Get("ETag") != "" {
		t.Fatal("degraded body must not carry cache validators")
	}
	var pairs [][2]float64
	if err := json.NewDecoder(resp.Body).Decode(&pairs); err != nil {
		t.Fatalf("degraded body not Flot pairs: %v", err)
	}
	if len(pairs) == 0 {
		t.Fatal("degraded series empty despite 24h of history")
	}
}

// TestLiveConnCapPreUpgrade pins the cap semantics: a portal at its
// live-connection limit answers a plain 503 + Retry-After BEFORE the
// WebSocket handshake — never a 500, never a half-upgraded socket — and
// the slot frees when the connection ends.
func TestLiveConnCapPreUpgrade(t *testing.T) {
	f := newFixture(t)
	conn := f.dialLive(t, "sensors")
	defer conn.Close(ws.CloseNormal, "")
	// Hold the other liveConnLimit-1 slots, so conn's is the last.
	held := 0
	for f.p.acquireLiveConn() {
		held++
	}
	if held != liveConnLimit-1 {
		t.Fatalf("held %d slots beside one connection, want %d", held, liveConnLimit-1)
	}
	defer func() {
		for ; held > 0; held-- {
			f.p.releaseLiveConn()
		}
	}()

	// A real upgrade attempt beyond the cap fails the dial cleanly.
	url := "ws" + strings.TrimPrefix(f.srv.URL, "http") + "/ws/live?topics=sensors"
	if _, err := ws.Dial(url); err == nil {
		t.Fatal("second dial succeeded past the connection cap")
	}
	// The pre-upgrade shed of a valid handshake is observable as plain
	// HTTP.
	req, err := http.NewRequest(http.MethodGet, f.srv.URL+"/ws/live?topics=sensors", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "13")
	req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /ws/live: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("capped upgrade without Retry-After")
	}
	// A request that is no handshake at all is refused as such even at
	// the cap: no Retry-After promises that a retry could succeed.
	resp = f.doRaw(t, http.MethodGet, "/ws/live?topics=sensors", "")
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Retry-After") != "" {
		t.Fatalf("header-less GET at the cap = %d, Retry-After %q; want 400, none",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Ending the connection frees the slot (release runs as the handler
	// unwinds, so poll briefly).
	conn.Close(ws.CloseNormal, "done")
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := ws.Dial(url)
		if err == nil {
			c2.Close(ws.CloseNormal, "")
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowMeter pins the eviction policy: only slowStrikes consecutive
// windows that each dropped a full queue's worth evict; one healthy
// window resets the count.
func TestSlowMeter(t *testing.T) {
	window := func(m *slowMeter, dropped uint64) bool {
		evicted := false
		for i := 0; i < slowWindow; i++ {
			if m.observe(dropped) {
				evicted = true
			}
		}
		return evicted
	}
	var m slowMeter
	var dropped uint64
	for w := 0; w < slowStrikes; w++ {
		dropped += slowWindow
		got := window(&m, dropped)
		want := w == slowStrikes-1
		if got != want {
			t.Fatalf("window %d: evicted = %v, want %v", w, got, want)
		}
	}

	// Two bad windows, one good, two bad again: never three in a row.
	m = slowMeter{}
	dropped = 0
	for _, bad := range []bool{true, true, false, true, true} {
		if bad {
			dropped += slowWindow
		}
		if window(&m, dropped) {
			t.Fatal("evicted without three consecutive saturated windows")
		}
	}
}

// TestClientKey pins the rate-limit key derivation.
func TestClientKey(t *testing.T) {
	for addr, want := range map[string]string{
		"192.0.2.1:4242": "192.0.2.1",
		"[::1]:8080":     "[::1]",
		"unix":           "unix",
	} {
		if got := clientKey(addr); got != want {
			t.Errorf("clientKey(%q) = %q, want %q", addr, got, want)
		}
	}
}
