// Series read path: /sensors/<id>/series and the fusion widget's
// embedded series. Responses stream straight from the sensor network's
// zero-copy window views — a year-long window costs the same response
// memory as a day — and carry ETag/Last-Modified validators derived from
// the sensor's ingest sequence so unchanged windows revalidate with 304.
//
// Query modes:
//
//	?from=&to=            raw readings (Flot [[ms,value],...])
//	&points=N             downsampled to at most N points (LTTB,
//	                      window min/max always preserved)
//	&agg=mean|min|max|sum|count&step=15m
//	                      fixed-step aggregate buckets from the
//	                      rollup index
package portal

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"evop/internal/httpcond"
	"evop/internal/metrics"
	"evop/internal/timeseries"
)

// maxSeriesPoints caps ?points= budgets: beyond this the response is no
// longer "a plot", and the guard keeps a typo from requesting a raw dump
// through the downsampler.
const maxSeriesPoints = 20000

// maxAggBuckets caps ?agg= responses; finer slicing than this belongs to
// the raw or downsampled modes.
const maxAggBuckets = 8192

// defaultAggStep is the ?agg= bucket width when &step= is omitted — the
// fastest LEFT sampling cadence, so default buckets hold ≥1 reading.
const defaultAggStep = 15 * time.Minute

// seriesInstruments tracks the series read path.
type seriesInstruments struct {
	notModified   *metrics.Counter
	downsampled   *metrics.Counter
	downsampleIn  *metrics.Counter
	downsampleOut *metrics.Counter
	// querySeconds times /sensors/<id>/series end to end (including 304
	// short-circuits — revalidation latency is part of the read path).
	querySeconds *metrics.Histogram
}

// newSeriesInstruments registers the series read-path instruments.
func newSeriesInstruments(reg *metrics.Registry) seriesInstruments {
	return seriesInstruments{
		notModified: reg.Counter("evop_series_not_modified_total",
			"Series requests answered 304 from the validators."),
		downsampled: reg.Counter("evop_series_downsampled_total",
			"Series responses that went through the downsampler."),
		downsampleIn: reg.Counter("evop_series_downsample_in_points_total",
			"Observations entering the downsampler."),
		downsampleOut: reg.Counter("evop_series_downsample_out_points_total",
			"Observations leaving the downsampler."),
		querySeconds: reg.Histogram("evop_series_query_seconds",
			"Series query latency.", metrics.DurationScale),
	}
}

// sensorSeries serves /sensors/<id>/series.
func (p *Portal) sensorSeries(w http.ResponseWriter, r *http.Request, id string) {
	start := time.Now()
	defer func() { p.series.querySeconds.RecordSince(start) }()
	if degraded(r) {
		p.degradedSeries(w, r, id)
		return
	}
	q := r.URL.Query()
	to := timeOrDefault(q.Get("to"), p.nowFallback())
	from := timeOrDefault(q.Get("from"), to.Add(-24*time.Hour))

	points, err := parsePoints(q.Get("points"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	agg := q.Get("agg")
	step := defaultAggStep
	if rawStep := q.Get("step"); rawStep != "" {
		step, err = time.ParseDuration(rawStep)
		if err != nil || step <= 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad step: want a positive Go duration"})
			return
		}
	}
	var buckets int
	if agg != "" {
		if !validAgg(agg) {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad agg: want mean, min, max, sum or count"})
			return
		}
		if !to.After(from) {
			buckets = 0
		} else {
			span := to.Sub(from)
			buckets = int((span + step - 1) / step)
		}
		if buckets > maxAggBuckets {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("window/step yields %d buckets, max %d", buckets, maxAggBuckets)})
			return
		}
	}

	// Conditional check before touching the store: the ETag covers the
	// ingest sequence and every parameter that shapes the body, so an
	// unchanged window revalidates byte-identically.
	stamp, err := p.obs.Network.ReadStamp(id)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	etag := httpcond.Tag("series", id,
		strconv.FormatUint(stamp.Seq, 10),
		strconv.FormatInt(from.UnixNano(), 10), strconv.FormatInt(to.UnixNano(), 10),
		strconv.Itoa(points), agg, strconv.FormatInt(int64(step), 10))
	httpcond.Apply(w, etag, stamp.LastIngest)
	if httpcond.Match(r, etag) {
		p.series.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if agg != "" {
		aggs, err := p.obs.Network.AggregateSeries(id, from, step, buckets)
		if err != nil {
			writeSensorErr(w, err)
			return
		}
		streamFlotPairs(w, aggPairs(aggs, from, step, agg))
		return
	}

	view, err := p.obs.Network.HistoryView(id, from, to)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	if points > 0 {
		out := timeseries.Downsample(view, points)
		p.series.downsampled.Inc()
		p.series.downsampleIn.Add(uint64(len(view)))
		p.series.downsampleOut.Add(uint64(len(out)))
		view = out
	}
	streamFlotPairs(w, view)
}

// degradedSeries is the series read path's overload fallback: instead
// of scanning (and possibly downsampling) raw readings, it answers the
// requested window from the coarsest rollup tier that still yields a
// plottable number of buckets — mean values only, no conditional
// validators (a degraded body must not be cached as the real one), and
// marked X-Degraded: coarse-rollup.
func (p *Portal) degradedSeries(w http.ResponseWriter, r *http.Request, id string) {
	q := r.URL.Query()
	to := timeOrDefault(q.Get("to"), p.nowFallback())
	from := timeOrDefault(q.Get("from"), to.Add(-24*time.Hour))
	if !to.After(from) {
		p.markDegraded(w, "coarse-rollup")
		streamFlotPairs(w, nil)
		return
	}
	span := to.Sub(from)
	// Coarsest tier first; fall through to finer tiers only when the
	// window is too short for the coarse one to produce ≥2 buckets.
	step := 15 * time.Minute
	for _, tier := range []time.Duration{120 * time.Hour, 6 * time.Hour} {
		if span >= 2*tier {
			step = tier
			break
		}
	}
	buckets := int((span + step - 1) / step)
	aggs, err := p.obs.Network.AggregateSeries(id, from, step, buckets)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	p.markDegraded(w, "coarse-rollup")
	streamFlotPairs(w, aggPairs(aggs, from, step, "mean"))
}

func parsePoints(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad points %q: want a positive integer", raw)
	}
	if n > maxSeriesPoints {
		return 0, fmt.Errorf("points %d exceeds max %d", n, maxSeriesPoints)
	}
	return n, nil
}

func validAgg(agg string) bool {
	switch agg {
	case "mean", "min", "max", "sum", "count":
		return true
	}
	return false
}

// aggPairs projects aggregate buckets onto Flot pairs stamped at each
// bucket's start. Empty buckets are skipped (a gap in the plot) except
// under agg=count, where zero is the honest value.
func aggPairs(aggs []timeseries.Aggregate, from time.Time, step time.Duration, agg string) []timeseries.Observation {
	out := make([]timeseries.Observation, 0, len(aggs))
	for i, a := range aggs {
		if a.Count == 0 && agg != "count" {
			continue
		}
		var v float64
		switch agg {
		case "mean":
			v = a.Mean()
		case "min":
			v = a.Min
		case "max":
			v = a.Max
		case "sum":
			v = a.Sum
		case "count":
			v = float64(a.Count)
		}
		out = append(out, timeseries.Observation{Time: from.Add(time.Duration(i) * step), Value: v})
	}
	return out
}

// streamFlotPairs writes a [[ms,value],...] JSON document straight from
// the view through a fixed-size buffer: response memory is O(1) in the
// window length, and the view is never copied.
func streamFlotPairs(w http.ResponseWriter, obs []timeseries.Observation) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	_ = bw.WriteByte('[')
	scratch := make([]byte, 0, 48)
	for i := range obs {
		if i > 0 {
			_ = bw.WriteByte(',')
		}
		_, _ = bw.Write(appendFlotPair(scratch[:0], obs[i]))
	}
	_ = bw.WriteByte(']')
	_ = bw.Flush()
}

// flotPairsJSON renders the same document into one byte slice, for
// embedding a (small, downsampled) series inside a larger JSON response.
func flotPairsJSON(obs []timeseries.Observation) []byte {
	buf := make([]byte, 0, 2+24*len(obs))
	buf = append(buf, '[')
	for i := range obs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFlotPair(buf, obs[i])
	}
	return append(buf, ']')
}

func appendFlotPair(buf []byte, o timeseries.Observation) []byte {
	buf = append(buf, '[')
	buf = strconv.AppendInt(buf, o.Time.UnixMilli(), 10)
	buf = append(buf, ',')
	if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
		buf = append(buf, "null"...) // JSON has no NaN/Inf
	} else {
		buf = strconv.AppendFloat(buf, o.Value, 'g', -1, 64)
	}
	return append(buf, ']')
}

// downsampledSeriesJSON fetches the last day of a sensor's readings as a
// rendered, downsampled Flot document — the fusion widget's sparkline
// payload.
func (p *Portal) downsampledSeriesJSON(id string, at time.Time, points int) ([]byte, error) {
	view, err := p.obs.Network.HistoryView(id, at.Add(-24*time.Hour), at.Add(time.Nanosecond))
	if err != nil {
		return nil, err
	}
	out := timeseries.Downsample(view, points)
	p.series.downsampled.Inc()
	p.series.downsampleIn.Add(uint64(len(view)))
	p.series.downsampleOut.Add(uint64(len(out)))
	return flotPairsJSON(out), nil
}
