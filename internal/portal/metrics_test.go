package portal

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"evop/internal/loadbalancer"
	"evop/internal/metrics"
	"evop/internal/push"
)

// metricsDoc is a /metrics JSON document indexed by series ID.
type metricsDoc map[string]metrics.Metric

// scrape GETs the /metrics JSON document and indexes it by series ID.
func (f *fixture) scrape(t *testing.T) metricsDoc {
	t.Helper()
	code, body := f.get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d %s", code, body)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("unmarshal metrics: %v", err)
	}
	doc := make(metricsDoc, len(snap.Metrics))
	for _, m := range snap.Metrics {
		doc[m.SeriesID()] = m
	}
	return doc
}

// get returns one series, failing the test when it is absent.
func (d metricsDoc) get(t *testing.T, id string) metrics.Metric {
	t.Helper()
	m, ok := d[id]
	if !ok {
		t.Fatalf("series %s missing from /metrics", id)
	}
	return m
}

// value returns a counter or gauge series' value.
func (d metricsDoc) value(t *testing.T, id string) float64 {
	t.Helper()
	return d.get(t, id).Value
}

// TestMetricsLegacyFieldParity is the oracle that moving /metrics onto
// the registry snapshot lost no operator-visible number: every field of
// the former hand-built JSON document maps to a series, each series is
// present after real traffic and an LB tick, and where a component
// accessor still reports the same quantity the two agree.
func TestMetricsLegacyFieldParity(t *testing.T) {
	f := newFixture(t)
	f.get(t, "/healthz")
	f.get(t, "/sensors/ghost/latest") // 404
	f.get(t, "/sensors/morland-level-1/series?points=10")
	f.post(t, "/widgets/model/run", `{"catchment":"morland","model":"topmodel"}`)
	f.post(t, "/widgets/model/run", `{"catchment":"morland","model":"topmodel"}`)
	f.post(t, "/sessions/connect?user=parity&service=topmodel", "")
	f.obs.LB.Tick()

	type row struct {
		field  string         // path in the former JSON document
		series string         // series ID in the registry snapshot
		hist   bool           // histogram-valued series
		want   func() float64 // accessor reporting the same value, if any
	}
	o := f.obs
	lb := func(pick func(s loadbalancer.Stats) int) func() float64 {
		return func() float64 { return float64(pick(o.LB.Stats())) }
	}
	rows := []row{
		{"privateInstances", `evop_instances{kind="private"}`, false, nil},
		{"publicInstances", `evop_instances{kind="public"}`, false, nil},
		{"bootingInstances", "evop_instances_booting", false, nil},
		{"activeSessions", `evop_sessions{state="active"}`, false, nil},
		{"pendingSessions", `evop_sessions{state="pending"}`, false, nil},
		{"closedSessions", "evop_broker_sessions_closed_total", false,
			func() float64 { return float64(o.Broker.ClosedTotal()) }},
		{"publicCost", "evop_public_cost", false, o.Public.CostAccrued},
		{"lbTicks", "evop_lb_ticks_total", false, func() float64 { return float64(o.LB.Ticks()) }},
		{"lbReplacements", "evop_lb_replaced_total", false, func() float64 { return float64(o.LB.Replaced()) }},
		{"sensors", "evop_sensors", false, func() float64 { return float64(len(o.Network.Sensors())) }},
		{"workflowRuns", "evop_workflow_runs", false, func() float64 { return float64(len(o.Workflows.Runs())) }},

		{"modelRunCache.hits", "evop_runcache_hits_total", false, nil},
		{"modelRunCache.misses", "evop_runcache_misses_total", false, nil},
		{"modelRunCache.coalesced", "evop_runcache_coalesced_total", false, nil},
		{"modelRunCache.canceled", "evop_runcache_canceled_total", false, nil},
		{"modelRunCache.evictions", "evop_runcache_evictions_total", false, nil},
		{"modelRunCache.staleHits", "evop_runcache_stale_hits_total", false, nil},
		{"modelRunCache.size", "evop_runcache_entries", false, nil},

		{"resilience.failovers", "evop_cloud_failovers_total", false,
			func() float64 { return float64(o.Multi.Failovers()) }},
		{"resilience.lb.ticks", "evop_lb_ticks_total", false, lb(func(s loadbalancer.Stats) int { return s.Ticks })},
		{"resilience.lb.replaced", "evop_lb_replaced_total", false, lb(func(s loadbalancer.Stats) int { return s.Replaced })},
		{"resilience.lb.launchFailures", "evop_lb_launch_failures_total", false,
			lb(func(s loadbalancer.Stats) int { return s.LaunchFailures })},
		{"resilience.lb.terminateFailures", "evop_lb_terminate_failures_total", false,
			lb(func(s loadbalancer.Stats) int { return s.TerminateFailures })},
		{"resilience.lb.terminateRetries", "evop_lb_terminate_retries_total", false,
			lb(func(s loadbalancer.Stats) int { return s.TerminateRetries })},
		{"resilience.lb.recoveredTerminations", "evop_lb_recovered_terminations_total", false,
			lb(func(s loadbalancer.Stats) int { return s.RecoveredTerminations })},
		{"resilience.lb.outstandingTerminations", "evop_lb_outstanding_terminations", false,
			lb(func(s loadbalancer.Stats) int { return s.OutstandingTerminations })},
		{"resilience.lb.inFlightReplacements", "evop_lb_inflight_replacements", false,
			lb(func(s loadbalancer.Stats) int { return s.InFlightReplacements })},
		{"resilience.suspendedSessions", "evop_broker_sessions_suspended", false,
			func() float64 { return float64(o.Broker.SuspendedCount()) }},
		{"resilience.suspendedEver", "evop_broker_sessions_suspended_total", false,
			func() float64 { return float64(o.Broker.SuspendedTotal()) }},

		{"sensorRead.seriesQueries", "evop_sensor_series_queries_total", false, nil},
		{"sensorRead.aggregateQueries", "evop_sensor_aggregate_queries_total", false, nil},
		{"sensorRead.rollupFallbacks", "evop_sensor_rollup_fallbacks_total", false, nil},

		{"http.inFlight", "evop_http_in_flight", false, nil},
		{"http.panics", "evop_http_panics_total", false, nil},

		{"series.notModified", "evop_series_not_modified_total", false, nil},
		{"series.downsampled", "evop_series_downsampled_total", false, nil},
		{"series.downsampleInPoints", "evop_series_downsample_in_points_total", false, nil},
		{"series.downsampleOutPoints", "evop_series_downsample_out_points_total", false, nil},

		{"latency[evop_series_query_seconds]", "evop_series_query_seconds", true, nil},
		{"latency[evop_model_run_seconds]", "evop_model_run_seconds", true, nil},

		{"process.uptimeSeconds", "evop_process_uptime_seconds", false,
			func() float64 { return f.clk.Now().Sub(epoch).Seconds() }},
		{"process.goroutines", "evop_process_goroutines", false, nil},
		{"process.heapBytes", "evop_process_heap_bytes", false, nil},
	}
	for _, h := range o.Multi.Health() {
		name, prov := `{name="`+h.Name+`"}`, `{provider="`+h.Name+`"}`
		field := "resilience.providers[" + h.Name + "]."
		rows = append(rows,
			row{field + "breaker", "evop_breaker_state" + name, false,
				func() float64 { return map[string]float64{"closed": 0, "half-open": 1, "open": 2}[h.Breaker] }},
			row{field + "consecutiveFailures", "evop_breaker_consecutive_failures" + name, false,
				func() float64 { return float64(h.ConsecutiveFailures) }},
			row{field + "breakerOpens", "evop_breaker_opens_total" + name, false,
				func() float64 { return float64(h.BreakerOpens) }},
			row{field + "launches", "evop_cloud_launches_total" + prov, false,
				func() float64 { return float64(h.Launches) }},
			row{field + "launchFailures", "evop_cloud_launch_failures_total" + prov, false,
				func() float64 { return float64(h.LaunchFailures) }},
			row{field + "terminates", "evop_cloud_terminates_total" + prov, false,
				func() float64 { return float64(h.Terminates) }},
			row{field + "terminateFailures", "evop_cloud_terminate_failures_total" + prov, false,
				func() float64 { return float64(h.TerminateFailures) }},
			row{field + "skippedOpen", "evop_cloud_skipped_open_total" + prov, false,
				func() float64 { return float64(h.SkippedOpen) }},
			row{field + "probes", "evop_cloud_probes_total" + prov, false,
				func() float64 { return float64(h.Probes) }},
		)
	}
	for _, hub := range []string{"sensors", "sessions"} {
		rows = append(rows, row{"push." + hub + ".subscribers", `evop_push_subscribers{hub="` + hub + `"}`, false, nil})
		for shard := 0; shard < push.DefaultShards; shard++ {
			labels := `{hub="` + hub + `",shard="` + strconv.Itoa(shard) + `"}`
			field := "push." + hub + ".shards[" + strconv.Itoa(shard) + "]."
			for _, c := range []struct{ field, name string }{
				{"published", "evop_push_published_total"},
				{"delivered", "evop_push_delivered_total"},
				{"coalesced", "evop_push_coalesced_total"},
				{"topics", "evop_push_topics"},
				{"registrations", "evop_push_registrations"},
			} {
				rows = append(rows, row{field + c.field, c.name + labels, false, nil})
			}
		}
	}
	for _, route := range []string{"/healthz", "/sensors/", "/widgets/model/run", "/metrics"} {
		field := "http.endpoints[" + route + "]."
		rows = append(rows,
			row{field + "requests/avgMillis/maxMillis", `evop_http_request_seconds{route="` + route + `"}`, true, nil},
			row{field + "errors", `evop_http_request_errors_total{route="` + route + `"}`, false, nil})
	}

	doc := f.scrape(t)
	for _, r := range rows {
		m, ok := doc[r.series]
		switch {
		case !ok:
			t.Errorf("%s: series %s missing from /metrics", r.field, r.series)
		case r.hist != (m.Histogram != nil):
			t.Errorf("%s: series %s histogram=%v, want %v", r.field, r.series, m.Histogram != nil, r.hist)
		case r.want != nil && m.Value != r.want():
			t.Errorf("%s: %s = %v, accessor reports %v", r.field, r.series, m.Value, r.want())
		}
	}
	// droppedUpdates is the sessions hub's coalesced total across shards.
	var dropped float64
	for shard := 0; shard < push.DefaultShards; shard++ {
		dropped += doc.value(t, `evop_push_coalesced_total{hub="sessions",shard="`+strconv.Itoa(shard)+`"}`)
	}
	if want := float64(o.Broker.DroppedUpdates()); dropped != want {
		t.Errorf("droppedUpdates: coalesced sum = %v, Broker.DroppedUpdates = %v", dropped, want)
	}

	// The traffic above is visible, not merely registered.
	if doc.value(t, "evop_sensors") != 15 || doc.value(t, "evop_runcache_hits_total") < 1 ||
		doc.value(t, "evop_runcache_entries") < 1 || doc.value(t, "evop_lb_ticks_total") == 0 {
		t.Error("fixture traffic not reflected in sensors, run-cache or LB series")
	}
	hs := doc.get(t, `evop_http_request_seconds{route="/healthz"}`).Histogram
	if hs.Count == 0 || hs.P50 < 0 || hs.P95 < hs.P50 || hs.P99 < hs.P95 || hs.Max < 0 {
		t.Errorf("/healthz latency = %+v, want recorded, ordered quantiles", hs)
	}
	if doc.value(t, "evop_process_goroutines") < 1 || doc.value(t, "evop_process_heap_bytes") == 0 {
		t.Error("process gauges report no live goroutines or heap")
	}
}

// TestMetricsViewsAgree checks that the JSON document and the
// Prometheus exposition are two renderings of one registry: on a paused
// simulated clock both list the same series, counters and gauges carry
// equal values, and each histogram's count and sum equal its _count and
// _sum samples. Traffic and both reads bypass the network so every
// request's instruments have settled before the first read; the
// evop_process_* gauges move between any two reads and are compared by
// presence only.
func TestMetricsViewsAgree(t *testing.T) {
	f := newFixture(t)
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		f.p.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	serve(http.MethodGet, "/healthz", "")
	serve(http.MethodGet, "/sensors/ghost/latest", "")
	serve(http.MethodGet, "/sensors/morland-level-1/series?points=10", "")
	serve(http.MethodPost, "/widgets/model/run", `{"catchment":"morland","model":"topmodel"}`)
	serve(http.MethodPost, "/sessions/connect?user=views&service=topmodel", "")
	f.obs.LB.Tick()

	read := func(query string) []byte {
		rec := httptest.NewRecorder()
		f.p.metrics(rec, httptest.NewRequest(http.MethodGet, "/metrics"+query, nil))
		return rec.Body.Bytes()
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(read(""), &snap); err != nil {
		t.Fatalf("unmarshal JSON view: %v", err)
	}
	prom := map[string]float64{}
	for _, line := range strings.Split(string(read("?format=prometheus")), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		prom[line[:sp]] = v
	}

	take := func(id string) (float64, bool) {
		v, ok := prom[id]
		delete(prom, id)
		return v, ok
	}
	for _, m := range snap.Metrics {
		id := m.SeriesID()
		if m.Histogram == nil {
			v, ok := take(id)
			switch {
			case !ok:
				t.Errorf("%s: in JSON, missing from Prometheus", id)
			case v != m.Value && !strings.HasPrefix(m.Name, "evop_process_"):
				t.Errorf("%s: JSON %v, Prometheus %v", id, m.Value, v)
			}
			continue
		}
		labels := id[len(m.Name):]
		count, okC := take(m.Name + "_count" + labels)
		sum, okS := take(m.Name + "_sum" + labels)
		if !okC || !okS || count != float64(m.Histogram.Count) || sum != m.Histogram.Sum {
			t.Errorf("%s: JSON count/sum %d/%v, Prometheus _count/_sum %v/%v (present %v/%v)",
				id, m.Histogram.Count, m.Histogram.Sum, count, sum, okC, okS)
		}
		for k := range prom {
			if strings.HasPrefix(k, m.Name+"_bucket{") {
				delete(prom, k)
			}
		}
	}
	for id := range prom {
		t.Errorf("%s: in Prometheus, missing from JSON", id)
	}
}

// TestMetricsPrometheusExposition drives ?format=prometheus end to end:
// content type, line grammar, and series from every instrumented layer
// (HTTP, sensor read path, push hub, run cache, LB, broker, breakers)
// appearing in one exposition.
func TestMetricsPrometheusExposition(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(2 * time.Minute)
	f.get(t, "/healthz")
	f.get(t, "/sensors/morland-level-1/series?points=10")

	resp, err := http.Get(f.srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != metrics.PrometheusContentType {
		t.Fatalf("content type = %q, want %q", got, metrics.PrometheusContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE evop_http_request_seconds histogram",
		`evop_http_request_seconds_count{route="/healthz"}`,
		"evop_http_in_flight",
		"evop_sensor_series_queries_total",
		`evop_push_published_total{hub="sensors",shard="0"}`,
		"evop_runcache_hits_total",
		"evop_lb_ticks_total",
		"evop_broker_sessions_closed_total",
		`evop_breaker_opens_total{name="openstack-lancaster"}`,
		"evop_series_query_seconds_sum",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	checkPortalExpositionGrammar(t, body)
}

// TestMetricsAcceptNegotiation checks the representation choice: an
// explicit ?format= always wins, and otherwise an Accept header naming
// text/plain selects the Prometheus exposition.
func TestMetricsAcceptNegotiation(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		path, accept   string
		wantPrometheus bool
	}{
		{"/metrics", "", false},
		{"/metrics", "application/json", false},
		{"/metrics", "text/plain", true},
		{"/metrics", "text/plain;version=0.0.4", true},
		{"/metrics?format=prometheus", "application/json", true},
		{"/metrics?format=json", "text/plain", false},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodGet, f.srv.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		ct := resp.Header.Get("Content-Type")
		resp.Body.Close()
		gotProm := ct == metrics.PrometheusContentType
		if gotProm != tc.wantPrometheus {
			t.Errorf("%s Accept=%q: content type %q, want prometheus=%v",
				tc.path, tc.accept, ct, tc.wantPrometheus)
		}
	}
}

// checkPortalExpositionGrammar asserts text-format 0.0.4 line structure
// over the portal's full exposition.
func checkPortalExpositionGrammar(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		value := line[sp+1:]
		if value == "+Inf" || value == "-Inf" || value == "NaN" {
			continue
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
	}
}
