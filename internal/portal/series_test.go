package portal

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"testing"
	"time"

	"evop/internal/admission"
	"evop/internal/httpcond"
	"evop/internal/timeseries"
)

// seriesURL builds a /sensors/morland-level-1/series request over the
// fixture's seeded 3 hours.
func seriesURL(params string) string {
	u := "/sensors/morland-level-1/series?from=" + epoch.Format(time.RFC3339) +
		"&to=" + epoch.Add(3*time.Hour).Format(time.RFC3339)
	if params != "" {
		u += "&" + params
	}
	return u
}

// TestSeriesTagMatchesTag holds seriesTag, which hashes its numbers
// from a stack buffer, to the Tag of their strconv text it replaced,
// over sensors, sequences, windows (before the epoch too), points,
// aggregates and steps, zero and negative values included.
func TestSeriesTagMatchesTag(t *testing.T) {
	windows := [][2]time.Time{
		{epoch, epoch.Add(3 * time.Hour)},
		{time.Unix(0, 0), time.Unix(0, 0)},
		{time.Unix(-86400, -1), time.Unix(0, 1)},
		{time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)},
	}
	for _, id := range []string{"morland-level-1", "", "Café-水位"} {
		for _, seq := range []uint64{0, 1, 42, math.MaxUint64} {
			for _, w := range windows {
				for _, points := range []int{0, 1, 500, -1, math.MinInt} {
					for _, agg := range []string{"", "mean", "count"} {
						for _, step := range []time.Duration{0, time.Second, 15 * time.Minute, -time.Hour, math.MinInt64} {
							got := seriesTag(id, seq, w[0], w[1], points, agg, step)
							want := httpcond.Tag("series", id, strconv.FormatUint(seq, 10),
								strconv.FormatInt(w[0].UnixNano(), 10), strconv.FormatInt(w[1].UnixNano(), 10),
								strconv.Itoa(points), agg, strconv.FormatInt(int64(step), 10))
							if got != want {
								t.Fatalf("seriesTag(%q, %d, %v, %v, %d, %q, %v) = %s, want %s",
									id, seq, w[0], w[1], points, agg, step, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestSeriesDownsampled checks ?points= bounds the response while
// keeping the window's extremes and endpoints.
func TestSeriesDownsampled(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(45 * time.Hour) // 48h total: 192 readings of the level gauge

	full := "/sensors/morland-level-1/series?from=" + epoch.Format(time.RFC3339) +
		"&to=" + epoch.Add(48*time.Hour).Format(time.RFC3339)
	code, body := f.get(t, full)
	if code != http.StatusOK {
		t.Fatalf("raw series = %d %s", code, body)
	}
	var raw [][2]float64
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("unmarshal raw: %v", err)
	}
	// Sampling starts one interval in, and the reading at exactly `to`
	// is outside the half-open window: 192 - 1.
	if len(raw) != 191 {
		t.Fatalf("raw points = %d, want 191", len(raw))
	}

	code, body = f.get(t, full+"&points=20")
	if code != http.StatusOK {
		t.Fatalf("downsampled = %d %s", code, body)
	}
	var ds [][2]float64
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatalf("unmarshal downsampled: %v", err)
	}
	if len(ds) > 20 || len(ds) < 4 {
		t.Fatalf("downsampled points = %d, want 4..20", len(ds))
	}
	if ds[0] != raw[0] || ds[len(ds)-1] != raw[len(raw)-1] {
		t.Fatal("downsampling lost the endpoints")
	}
	extremes := func(pairs [][2]float64) (lo, hi float64) {
		lo, hi = pairs[0][1], pairs[0][1]
		for _, p := range pairs {
			if p[1] < lo {
				lo = p[1]
			}
			if p[1] > hi {
				hi = p[1]
			}
		}
		return
	}
	rawLo, rawHi := extremes(raw)
	dsLo, dsHi := extremes(ds)
	if rawLo != dsLo || rawHi != dsHi {
		t.Fatalf("downsampling lost extremes: %v/%v, want %v/%v", dsLo, dsHi, rawLo, rawHi)
	}

	// Bounds: zero, negative, garbage and oversize budgets answer 400.
	for _, bad := range []string{"points=0", "points=-5", "points=many", "points=999999"} {
		code, _ = f.get(t, seriesURL(bad))
		if code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", bad, code)
		}
	}
}

// TestSeriesAggregated checks ?agg= answers fixed-step buckets from the
// rollup index.
func TestSeriesAggregated(t *testing.T) {
	f := newFixture(t)

	code, body := f.get(t, seriesURL("agg=count&step=1h"))
	if code != http.StatusOK {
		t.Fatalf("agg=count = %d %s", code, body)
	}
	var counts [][2]float64
	if err := json.Unmarshal(body, &counts); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	// 3 one-hour buckets of the 15-minute gauge: 4 readings each.
	if len(counts) != 3 {
		t.Fatalf("buckets = %d, want 3", len(counts))
	}
	for i, c := range counts {
		wantT := float64(epoch.Add(time.Duration(i) * time.Hour).UnixMilli())
		wantN := 4.0
		if i == 0 {
			wantN = 3 // sampling starts at epoch+15m, so [0h,1h) holds 3
		}
		if c[0] != wantT || c[1] != wantN {
			t.Fatalf("bucket %d = %v, want [%v %v]", i, c, wantT, wantN)
		}
	}

	// mean/min/max agree with the raw series per bucket.
	code, body = f.get(t, seriesURL(""))
	if code != http.StatusOK {
		t.Fatalf("raw = %d", code)
	}
	var raw [][2]float64
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatalf("unmarshal raw: %v", err)
	}
	for _, mode := range []string{"mean", "min", "max", "sum"} {
		code, body = f.get(t, seriesURL("agg="+mode+"&step=1h"))
		if code != http.StatusOK {
			t.Fatalf("agg=%s = %d", mode, code)
		}
		var got [][2]float64
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("unmarshal agg=%s: %v", mode, err)
		}
		if len(got) != 3 {
			t.Fatalf("agg=%s buckets = %d, want 3", mode, len(got))
		}
		for i, g := range got {
			lo := epoch.Add(time.Duration(i) * time.Hour)
			var want float64
			var n int
			for _, p := range raw {
				at := time.UnixMilli(int64(p[0]))
				if at.Before(lo) || !at.Before(lo.Add(time.Hour)) {
					continue
				}
				switch {
				case n == 0:
					want = p[1]
				case mode == "min" && p[1] < want:
					want = p[1]
				case mode == "max" && p[1] > want:
					want = p[1]
				}
				if mode == "sum" || mode == "mean" {
					if n > 0 {
						want += p[1]
					}
				}
				n++
			}
			if mode == "mean" {
				want /= float64(n)
			}
			if diff := g[1] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("agg=%s bucket %d = %v, want %v", mode, i, g[1], want)
			}
		}
	}

	// Parameter guards.
	for _, bad := range []string{"agg=median", "agg=mean&step=banana", "agg=mean&step=-1h", "agg=mean&step=1ms"} {
		code, _ = f.get(t, seriesURL(bad))
		if code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", bad, code)
		}
	}
}

// TestSeriesConditionalRequests checks the ETag lifecycle: identical
// windows on an unchanged store produce byte-identical validators, If-
// None-Match short-circuits with 304, ingest and parameter changes
// invalidate, and the 304 counter surfaces in /metrics.
func TestSeriesConditionalRequests(t *testing.T) {
	f := newFixture(t)
	u := f.srv.URL + seriesURL("points=8")

	r1, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, r1.Body)
	r1.Body.Close()
	etag := r1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on series response")
	}
	if r1.Header.Get("Last-Modified") == "" {
		t.Fatal("no Last-Modified on series response")
	}

	r2, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if got := r2.Header.Get("ETag"); got != etag {
		t.Fatalf("ETag not byte-identical across unchanged window: %s vs %s", etag, got)
	}

	req, _ := http.NewRequest("GET", u, nil)
	req.Header.Set("If-None-Match", etag)
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation = %d with %d-byte body, want bare 304", r3.StatusCode, len(body))
	}

	// A different shape of the same window is a different entity.
	rq2, _ := http.NewRequest("GET", f.srv.URL+seriesURL("points=9"), nil)
	rq2.Header.Set("If-None-Match", etag)
	r4, err := http.DefaultClient.Do(rq2)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, r4.Body)
	r4.Body.Close()
	if r4.StatusCode != http.StatusOK || r4.Header.Get("ETag") == etag {
		t.Fatalf("points=9 reused points=8 entity: %d %s", r4.StatusCode, r4.Header.Get("ETag"))
	}

	// Ingest invalidates.
	f.clk.Advance(time.Hour)
	r5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, r5.Body)
	r5.Body.Close()
	if r5.StatusCode != http.StatusOK {
		t.Fatalf("after ingest = %d, want 200", r5.StatusCode)
	}
	if r5.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged after ingest")
	}

	m := f.scrape(t)
	if got := m.value(t, "evop_series_not_modified_total"); got != 1 {
		t.Fatalf("notModified = %v, want 1", got)
	}
	downsampled := m.value(t, "evop_series_downsampled_total")
	in, out := m.value(t, "evop_series_downsample_in_points_total"), m.value(t, "evop_series_downsample_out_points_total")
	if downsampled == 0 || in < out {
		t.Fatalf("downsampled/in/out = %v/%v/%v", downsampled, in, out)
	}
	if m.value(t, "evop_sensor_series_queries_total") == 0 {
		t.Fatal("sensor series queries not surfaced")
	}
}

// TestFusionWithSeries checks ?points= on the fusion widget embeds the
// downsampled 24h sparklines.
func TestFusionWithSeries(t *testing.T) {
	f := newFixture(t)
	f.clk.Advance(24 * time.Hour)

	code, body := f.get(t, "/widgets/fusion?catchment=morland&points=16")
	if code != http.StatusOK {
		t.Fatalf("fusion = %d %s", code, body)
	}
	var fused struct {
		Temperature       float64      `json:"temperature"`
		TemperatureSeries [][2]float64 `json:"temperatureSeries"`
		TurbiditySeries   [][2]float64 `json:"turbiditySeries"`
		Frame             struct {
			Content []byte `json:"content"`
		} `json:"frame"`
	}
	if err := json.Unmarshal(body, &fused); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(fused.Frame.Content) == 0 {
		t.Fatal("fusion lost the webcam frame")
	}
	for name, s := range map[string][][2]float64{
		"temperature": fused.TemperatureSeries, "turbidity": fused.TurbiditySeries,
	} {
		if len(s) < 4 || len(s) > 16 {
			t.Fatalf("%s series = %d points, want 4..16", name, len(s))
		}
	}
	// The fused instant's temperature is a real reading; the sparkline
	// ends at or before that instant.
	last := time.UnixMilli(int64(fused.TemperatureSeries[len(fused.TemperatureSeries)-1][0]))
	if last.After(f.clk.Now()) {
		t.Fatalf("sparkline reaches %v, beyond now %v", last, f.clk.Now())
	}

	// Without points the classic shape is preserved (no series keys).
	_, body = f.get(t, "/widgets/fusion?catchment=morland")
	var plain map[string]json.RawMessage
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatalf("unmarshal plain: %v", err)
	}
	if _, ok := plain["temperatureSeries"]; ok {
		t.Fatal("plain fusion response grew a temperatureSeries key")
	}

	code, _ = f.get(t, "/widgets/fusion?catchment=morland&points=banana")
	if code != http.StatusBadRequest {
		t.Fatalf("bad points = %d, want 400", code)
	}
}

// TestSeriesBodyIsWriteFlot checks the streamed series body is exactly
// the timeseries Flot writer's document for the same window view.
func TestSeriesBodyIsWriteFlot(t *testing.T) {
	f := newFixture(t)
	code, body := f.get(t, seriesURL(""))
	if code != http.StatusOK {
		t.Fatalf("series = %d %s", code, body)
	}
	view, err := f.obs.Network.HistoryView("morland-level-1", epoch, epoch.Add(3*time.Hour))
	if err != nil {
		t.Fatalf("HistoryView: %v", err)
	}
	if len(view) == 0 {
		t.Fatal("empty window: nothing to compare")
	}
	var want bytes.Buffer
	if err := timeseries.WriteFlot(&want, view); err != nil {
		t.Fatalf("WriteFlot: %v", err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("series body differs from WriteFlot:\n got %s\nwant %s", body, want.Bytes())
	}
}

// TestSeriesStreamsEmptyWindow pins the streamed encoder's empty-window
// document: a JSON array, not null.
func TestSeriesStreamsEmptyWindow(t *testing.T) {
	f := newFixture(t)
	from := epoch.Add(-48 * time.Hour).Format(time.RFC3339)
	to := epoch.Add(-24 * time.Hour).Format(time.RFC3339)
	code, body := f.get(t, "/sensors/morland-level-1/series?from="+from+"&to="+to)
	if code != http.StatusOK {
		t.Fatalf("empty window = %d", code)
	}
	if string(body) != "[]" {
		t.Fatalf("empty window body = %q, want []", body)
	}
}

// TestSeriesAggOverWideWindow pins the ?agg= bucket count at the edge of
// time.Duration: a window spanning more than ~292 years answers 400 on
// the healthy and the degraded path (to.Sub(from) saturates there, and
// the count it fed came out negative or zero), while a representable
// window with a near-maximal step still yields its one bucket.
func TestSeriesAggOverWideWindow(t *testing.T) {
	f := newFixture(t)
	const sensor = "/sensors/morland-level-1/series?"
	for _, q := range []string{
		"agg=mean&from=0001-01-01T00:00:00Z&to=9999-12-31T00:00:00Z&step=1h",
		"agg=mean&from=1000-01-01T00:00:00Z&to=2019-01-02T00:00:00Z&step=100000h",
		"agg=mean&from=0001-01-01T00:00:00Z&to=9999-12-31T00:00:00Z&step=2562047h",
	} {
		if code, body := f.get(t, sensor+q); code != http.StatusBadRequest {
			t.Fatalf("%s = %d %s, want 400", q, code, body)
		}
	}

	// 1900 to the fixture's readings is ~120 years: one 2562047h bucket.
	q := "agg=count&from=1900-01-01T00:00:00Z&to=" + epoch.Add(3*time.Hour).Format(time.RFC3339) + "&step=2562047h"
	code, body := f.get(t, sensor+q)
	if code != http.StatusOK {
		t.Fatalf("%s = %d %s", q, code, body)
	}
	var counts [][2]float64
	if err := json.Unmarshal(body, &counts); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(counts) != 1 || counts[0][1] == 0 {
		t.Fatalf("%s = %s, want one bucket holding the fixture's readings", q, body)
	}

	// The degraded path counts its buckets the same way.
	f.saturate(t, admission.Live)
	resp := f.doRaw(t, http.MethodGet, sensor+"from=0001-01-01T00:00:00Z&to=9999-12-31T00:00:00Z", "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("degraded over-wide window = %d, want 400", resp.StatusCode)
	}
	// Readings a day apart over the last 40 days fill every coarse
	// bucket they span, so consecutive pairs sit one degraded step apart.
	now := f.clk.Now()
	for d := 1; d <= 40; d++ {
		if err := f.obs.Network.Ingest("morland-level-1", now.Add(-time.Duration(d)*24*time.Hour), float64(d)); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	resp = f.doRaw(t, http.MethodGet, sensor+"from=1900-01-01T00:00:00Z", "")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(DegradedHeader) != "coarse-rollup" {
		t.Fatalf("degraded 120-year window = %d degraded=%q", resp.StatusCode, resp.Header.Get(DegradedHeader))
	}
	// The overload path is capped like the healthy one: at most
	// maxAggBuckets pairs, and a step wide enough that from..to spans no
	// more buckets than that.
	var pairs [][2]float64
	if err := json.Unmarshal(body, &pairs); err != nil {
		t.Fatalf("unmarshal degraded body: %v", err)
	}
	if len(pairs) < 2 || len(pairs) > maxAggBuckets {
		t.Fatalf("degraded 120-year window has %d pairs, want 2..%d", len(pairs), maxAggBuckets)
	}
	step := pairs[1][0] - pairs[0][0]
	for i := 2; i < len(pairs); i++ {
		step = min(step, pairs[i][0]-pairs[i-1][0])
	}
	from := float64(time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC).UnixMilli())
	if buckets := int((pairs[len(pairs)-1][0]-from)/step) + 1; buckets > maxAggBuckets {
		t.Fatalf("degraded step %v spans %d buckets from 1900, max %d",
			time.Duration(step)*time.Millisecond, buckets, maxAggBuckets)
	}
}
