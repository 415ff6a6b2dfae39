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
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"evop/internal/httpcond"
	"evop/internal/metrics"
	"evop/internal/rest"
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
		rest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	agg := q.Get("agg")
	step := defaultAggStep
	if rawStep := q.Get("step"); rawStep != "" {
		step, err = time.ParseDuration(rawStep)
		if err != nil || step <= 0 {
			rest.WriteError(w, http.StatusBadRequest, "bad step: want a positive Go duration")
			return
		}
	}
	var buckets int
	if agg != "" {
		if !validAgg(agg) {
			rest.WriteError(w, http.StatusBadRequest, "bad agg: want mean, min, max, sum or count")
			return
		}
		var ok bool
		if buckets, ok = aggBuckets(from, to, step); !ok {
			rest.WriteError(w, http.StatusBadRequest, errWindowTooWide)
			return
		}
		if buckets > maxAggBuckets {
			rest.WriteError(w, http.StatusBadRequest,
				fmt.Sprintf("window/step yields %d buckets, max %d", buckets, maxAggBuckets))
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
	etag := seriesTag(id, stamp.Seq, from, to, points, agg, step)
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

// seriesTag is a series response's ETag: the sensor, its ingest
// sequence and every parameter that shapes the body, numbers hashed as
// their decimal text.
func seriesTag(id string, seq uint64, from, to time.Time, points int, agg string, step time.Duration) string {
	return httpcond.NewHash().Part("series").Part(id).Uint(seq).
		Int(from.UnixNano()).Int(to.UnixNano()).Int(int64(points)).Part(agg).Int(int64(step)).Tag()
}

// degradedSeries is the series read path's overload fallback: instead
// of scanning (and possibly downsampling) raw readings, it answers the
// requested window from the coarsest rollup tier that still yields a
// plottable number of buckets, widened to a multiple of that tier when
// the window would exceed maxAggBuckets — mean values only, no conditional
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
	buckets, ok := aggBuckets(from, to, step)
	if !ok {
		rest.WriteError(w, http.StatusBadRequest, errWindowTooWide)
		return
	}
	if buckets > maxAggBuckets {
		// Widen to the smallest multiple of the tier that fits the cap:
		// ⌈⌈span/tier⌉/max⌉ = ⌈span/(max·tier)⌉.
		step *= time.Duration((buckets + maxAggBuckets - 1) / maxAggBuckets)
		buckets, _ = aggBuckets(from, to, step)
	}
	aggs, err := p.obs.Network.AggregateSeries(id, from, step, buckets)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	p.markDegraded(w, "coarse-rollup")
	streamFlotPairs(w, aggPairs(aggs, from, step, "mean"))
}

// errWindowTooWide answers an ?agg= window whose span overflows a
// time.Duration.
const errWindowTooWide = "window too wide: from..to must span under 292 years"

// aggBuckets returns how many step-wide buckets cover [from, to), 0 for
// an empty or inverted window. ok is false when the span does not fit a
// time.Duration (about 292 years): to.Sub(from) saturates there, and a
// count derived from it would be wrong or overflow.
func aggBuckets(from, to time.Time, step time.Duration) (buckets int, ok bool) {
	if !to.After(from) {
		return 0, true
	}
	span := to.Sub(from)
	if !from.Add(span).Equal(to) {
		return 0, false
	}
	n := span / step
	if span%step != 0 {
		n++
	}
	return int(n), true
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

// streamFlotPairs writes obs as a 200 Flot document straight from the
// view: response memory is O(1) in the window length, and the view is
// never copied.
func streamFlotPairs(w http.ResponseWriter, obs []timeseries.Observation) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = timeseries.WriteFlot(w, obs) // status is sent; a failed write means the client left
}

// flotMember is a JSON object member whose value is a Flot document
// that write streams.
type flotMember struct {
	key   string
	write func(io.Writer) error
}

// writeFlotObject answers 200 with one JSON object: the Flot members
// head, the members of fields, then the Flot members tail. fields is a
// marshalled, non-empty object, so a marshal error can still be answered
// 500 before the status is sent. Each Flot document streams through
// timeseries' fixed chunk, never buffered whole or re-compacted. The
// body ends in '\n', as rest.WriteJSON's does.
func writeFlotObject(w http.ResponseWriter, head []flotMember, fields []byte, tail []flotMember) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// text holds the JSON between two Flot documents. The status is sent,
	// so a failed write means the client left and ends the body.
	text := make([]byte, 0, len(fields)+64)
	text = append(text, '{')
	stream := func(m flotMember) error {
		text = append(append(append(text, '"'), m.key...), '"', ':')
		if _, err := w.Write(text); err != nil {
			return err
		}
		text = text[:0]
		return m.write(w)
	}
	for _, m := range head {
		if stream(m) != nil {
			return
		}
		text = append(text, ',')
	}
	text = append(text, fields[1:len(fields)-1]...)
	for _, m := range tail {
		text = append(text, ',')
		if stream(m) != nil {
			return
		}
	}
	_, _ = w.Write(append(text, '}', '\n'))
}

// downsampledSeries fetches the last day of a sensor's readings,
// downsampled to at most points — the fusion widget's sparkline.
func (p *Portal) downsampledSeries(id string, at time.Time, points int) ([]timeseries.Observation, error) {
	view, err := p.obs.Network.HistoryView(id, at.Add(-24*time.Hour), at.Add(time.Nanosecond))
	if err != nil {
		return nil, err
	}
	out := timeseries.Downsample(view, points)
	p.series.downsampled.Inc()
	p.series.downsampleIn.Add(uint64(len(view)))
	p.series.downsampleOut.Add(uint64(len(out)))
	return out, nil
}
