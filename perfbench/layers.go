package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"evop/internal/metrics"
)

// perLayer runs the stream twice on fresh worlds: through the portal
// untraced (route latencies, registry counts, checks) and as a traced
// replay of the handlers' calls (layer timings). The replay's results
// must equal the portal's answers op for op.
func perLayer(s *Stream, meta map[string]any, outDir string) (*Result, error) {
	subscribe := s.Workload == "sensor_ingest"
	w, _, fill1, err := buildWorlds(1, subscribe)
	if err != nil {
		return nil, err
	}
	st := runHTTP(w, s, true)
	w.stop()
	describeRun(meta, st)

	tw, _, fill2, err := buildWorlds(1, subscribe)
	if err != nil {
		return nil, err
	}
	tres := runTraced(tw, s)
	tw.stop()

	for reason, n := range tres.Errors {
		st.Failures["traced "+reason] += n
	}
	mismatch := 0
	for i := range st.Digests {
		if i >= len(tres.Digests) || st.Digests[i] != tres.Digests[i] {
			mismatch++
		}
	}
	if mismatch > 0 {
		st.Failures[fmt.Sprintf("%v: results differ", errDiverged)] += mismatch
	}
	for _, name := range replayedCounters {
		a := delta{st.Start, st.WindowEnd}.counter(name)
		b := tres.Whole.counter(name)
		if name == "evop_model_run_seconds" {
			a = float64(delta{st.Start, st.WindowEnd}.hist(name).Count)
			b = float64(tres.Whole.hist(name).Count)
		}
		if a != b {
			st.Failures[fmt.Sprintf("%v: %s %v vs %v", errDiverged, name, a, b)]++
		}
	}

	m := layerMetrics(st, tres)
	m["clock.backfill_s"] = Metric{Median(append(fill1, fill2...)), "s"}
	spanCost := emptySpanCost()
	m["trace.empty_span_ns"] = Metric{spanCost, "ns"}
	overhead := routeOverhead(st, tres)
	meta["trace_route_totals_ms"] = overhead
	var untraced, traced float64
	for _, o := range overhead {
		untraced += o.UntracedMs
		traced += o.TracedMs
	}
	// overhead_pct compares whole route totals, so it nets the spans'
	// cost against the HTTP work the replay skips; span_cost_pct is the
	// calibrated cost of the spans alone.
	m["trace.overhead_pct"] = Metric{100 * (traced - untraced) / untraced, "%"}
	m["trace.span_cost_pct"] = Metric{100 * m["trace.spans"].Value * spanCost / 1e6 / traced, "%"}

	path, err := writeSpans(outDir, s, tres, overhead)
	if err != nil {
		return nil, err
	}
	meta["trace_file"] = path
	failed := st.Failed()
	m["portal.error_rate"] = Metric{float64(failed) / float64(st.Attempted), "ratio"}
	meta["failures"] = st.Failures
	return &Result{Correct: failed == 0, Attempted: st.Attempted, Failed: failed, Metrics: m}, nil
}

var errDiverged = errors.New("traced replay diverged from the HTTP run")

// replayedCounters are program counters the traced replay must move
// exactly as the portal run did: the replay is only a breakdown of the
// same work if it did the same work.
var replayedCounters = []string{
	"evop_runcache_hits_total", "evop_runcache_misses_total", "evop_model_run_seconds",
	"evop_lb_ticks_total", "evop_push_published_total", "evop_push_delivered_total",
	"evop_push_coalesced_total", "evop_sensor_external_ingest_total",
	"evop_sensor_series_queries_total", "evop_sensor_aggregate_queries_total",
	"evop_sched_tasks_total",
}

// spanSet indexes the measured window's spans.
type spanSet struct {
	spans []Span
	in    []bool // inside the measured window
}

func (ss spanSet) durations(name string, keep func(Span) bool) []float64 {
	var out []float64
	for i, s := range ss.spans {
		if ss.in[i] && s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.Dur()))
		}
	}
	return out
}

// medianUs is the median duration of the named spans in microseconds.
func (ss spanSet) medianUs(name string, keep func(Span) bool) float64 {
	return Median(ss.durations(name, keep)) / 1e3
}

func layerMetrics(st *runStats, tres *traceResult) map[string]Metric {
	m := make(map[string]Metric)
	us := func(name string, v float64) { m[name] = Metric{v, "us"} }
	count := func(name string, v float64) { m[name] = Metric{v, "count"} }

	ss := spanSet{spans: tres.Spans, in: make([]bool, len(tres.Spans))}
	for i, s := range tres.Spans {
		ss.in[i] = s.Start >= tres.WindowNs
	}
	// An op's layer sum is its root span less the root's self time: the
	// part of the request its layer calls cover.
	self := SelfTimes(tres.Spans)
	layerSum := make(map[string][]float64)
	for i, s := range tres.Spans {
		if ss.in[i] && s.Parent < 0 && s.Op >= 0 && !tres.SOSDirect[int(s.Op)] {
			layerSum[s.Name] = append(layerSum[s.Name], float64(s.Dur()-self[i]))
		}
	}
	for _, r := range Routes {
		lat := sortedCopy(st.RouteLat[r])
		count("portal.route."+r+".ops", float64(len(lat)))
		p50, p99 := 0.0, 0.0
		if len(lat) > 0 {
			p50, p99 = Percentile(lat, 0.5), Percentile(lat, 0.99)
		}
		m["portal.route."+r+".p50_ms"] = Metric{p50, "ms"}
		m["portal.route."+r+".p99_ms"] = Metric{p99, "ms"}
		portalSelf := 0.0
		if len(lat) > 0 {
			portalSelf = p50*1e3 - Median(layerSum[r])/1e3
		}
		us("portal.self_us."+r, portalSelf)
	}

	// The whole mix's p99 is reported here, unbounded: on a shared
	// 2-vCPU host it mostly measures when the scheduler preempted the
	// benchmark, so the bounded end-to-end tail is the p90.
	m["portal.latency_p99_ms"] = Metric{Percentile(sortedCopy(st.Latencies), 0.99), "ms"}

	win := delta{st.WindowStart, st.WindowEnd}
	whole := delta{st.Start, st.WindowEnd}
	us("admission.admit_us", ss.medianUs("admission.admit", nil))
	count("admission.shed", whole.counter("evop_admission_shed_total"))
	count("admission.queued", whole.counter("evop_admission_queued_total"))

	us("timeseries.flot_encode_us", ss.medianUs("timeseries.flot_encode", nil))
	var sizes []float64
	for i, s := range ss.spans {
		if ss.in[i] && s.Name == "timeseries.flot_encode" {
			sizes = append(sizes, float64(s.Size))
		}
	}
	m["timeseries.flot_encode_kb"] = Metric{Median(sizes) / 1024, "KiB"}
	us("timeseries.downsample_us", ss.medianUs("timeseries.downsample", nil))
	count("timeseries.downsample_points_in", win.counter("evop_series_downsample_in_points_total"))
	us("portal.series_query_us", meanUs(win.hist("evop_series_query_seconds")))

	hits, misses := win.counter("evop_runcache_hits_total"), win.counter("evop_runcache_misses_total")
	lookups := hits + misses + win.counter("evop_runcache_coalesced_total")
	ratio := 0.0
	if lookups > 0 {
		ratio = hits / lookups
	}
	m["runcache.hit_ratio"] = Metric{ratio, "ratio"}
	count("runcache.misses", misses)
	count("runcache.evictions", win.counter("evop_runcache_evictions_total"))
	us("runcache.lookup_us", ss.medianUs("core.run_model", func(s Span) bool { return s.Note == "hit" }))

	us("core.run_model_us", ss.medianUs("core.run_model", nil))
	us("core.simulation_us", meanUs(win.hist("evop_model_run_seconds")))
	us("core.quality_us", ss.medianUs("core.quality", nil))
	us("core.lowflow_us", ss.medianUs("core.lowflow", nil))
	us("core.storm_window_us", ss.medianUs("core.storm_window", nil))
	us("topmodel.run_us", ss.medianUs("topmodel.run", nil))
	us("fuse.ensemble_us", ss.medianUs("fuse.ensemble", nil))
	count("sched.tasks", win.counter("evop_sched_tasks_total"))
	us("sched.task_us", meanUs(win.hist("evop_sched_task_seconds")))
	us("wps.execute_us", ss.medianUs("wps.execute", nil))

	us("sensor.ingest_us", ss.medianUs("sensor.ingest", nil))
	us("sos.insert_us", ss.medianUs("sos.insert", nil))
	us("sensor.history_view_us", ss.medianUs("sensor.history_view", nil))
	us("sensor.aggregate_us", ss.medianUs("sensor.aggregate", nil))
	us("sensor.fuse_us", ss.medianUs("sensor.fuse", nil))
	count("sensor.rollup_fallbacks", win.counter("evop_sensor_rollup_fallbacks_total"))
	hub := metrics.L("hub", "sensors")
	count("push.published", win.counter("evop_push_published_total", hub))
	count("push.delivered", win.counter("evop_push_delivered_total", hub))
	count("push.coalesced", win.counter("evop_push_coalesced_total", hub))
	us("push.publish_us", meanUs(win.hist("evop_push_publish_seconds", hub)))

	us("broker.connect_us", ss.medianUs("broker.connect", nil))
	us("broker.session_us", ss.medianUs("broker.session", nil))
	us("broker.disconnect_us", ss.medianUs("broker.disconnect", nil))
	count("broker.sessions_active_peak", float64(st.ActivePeak))
	count("loadbalancer.ticks", win.counter("evop_lb_ticks_total"))
	var perTick []float64
	for i, s := range ss.spans {
		if ss.in[i] && s.Name == "clock.advance" && s.Size > 0 {
			perTick = append(perTick, float64(s.Dur())/float64(s.Size))
		}
	}
	us("loadbalancer.tick_us", Median(perTick)/1e3)
	count("cloud.public_instances_peak", float64(st.PublicPeak))
	m["cloud.public_cost"] = Metric{st.PublicCost, "usd"}

	count("runtime.gc_cycles", float64(st.GCCycles))
	m["runtime.gc_pause_ms"] = Metric{float64(st.GCPause.Microseconds()) / 1e3, "ms"}
	count("trace.spans", float64(countIn(ss)))
	return m
}

func countIn(ss spanSet) int {
	n := 0
	for _, in := range ss.in {
		if in {
			n++
		}
	}
	return n
}

// routeTotal compares one route's summed latency in the untraced run
// with its summed root-span time in the traced replay.
type routeTotal struct {
	Route      string  `json:"route"`
	Ops        int     `json:"ops"`
	UntracedMs float64 `json:"untraced_ms"`
	TracedMs   float64 `json:"traced_ms"`
	LayerMs    float64 `json:"layer_ms"`
}

func routeOverhead(st *runStats, tres *traceResult) []routeTotal {
	byRoute := make(map[string]*routeTotal)
	for _, r := range Routes {
		if lat := st.RouteLat[r]; len(lat) > 0 {
			t := &routeTotal{Route: r, Ops: len(lat)}
			for _, l := range lat {
				t.UntracedMs += l
			}
			byRoute[r] = t
		}
	}
	self := SelfTimes(tres.Spans)
	for i, s := range tres.Spans {
		if s.Start < tres.WindowNs || s.Parent >= 0 || s.Op < 0 {
			continue
		}
		if t := byRoute[s.Name]; t != nil {
			t.TracedMs += float64(s.Dur()) / 1e6
			t.LayerMs += float64(s.Dur()-self[i]) / 1e6
		}
	}
	out := make([]routeTotal, 0, len(byRoute))
	for _, t := range byRoute {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// writeSpans dumps the traced replay: one span per line as
// [op, parent, name, start_ns, end_ns, note, size], after a header with
// the per-route overhead table.
func writeSpans(dir string, s *Stream, tres *traceResult, overhead []routeTotal) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", s.Workload, s.Seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{"workload": s.Workload, "seed": s.Seed,
		"window_start_ns": tres.WindowNs, "route_totals": overhead})
	for _, sp := range tres.Spans {
		if err != nil {
			break
		}
		err = enc.Encode([]any{sp.Op, sp.Parent, sp.Name, sp.Start, sp.End, sp.Note, sp.Size})
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing trace file: %w", err)
	}
	return path, nil
}
