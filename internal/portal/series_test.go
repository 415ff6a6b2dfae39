package portal

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"
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
