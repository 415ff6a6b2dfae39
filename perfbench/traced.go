package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"evop/internal/admission"
	"evop/internal/broker"
	"evop/internal/core"
	"evop/internal/runcache"
	"evop/internal/scenario"
	"evop/internal/sensor"
	"evop/internal/timeseries"
)

// The traced run replays the stream on a fresh world without the HTTP
// layer: for each request it calls, in the route handler's order, the
// same public functions the handler calls, with a span around each. The
// difference between a route's untraced latency and the sum of these
// spans is what the portal itself (middleware, routing, decoding and
// encoding) costs.

// routePolicy mirrors the portal's admission posture per route: the
// class, and whether a saturated request queues (gate) or is flagged
// for a degraded answer (try).
type routePolicy struct {
	class admission.Class
	try   bool
}

var policies = map[Kind]routePolicy{
	KConnect:     {admission.Live, false},
	KSessionGet:  {admission.Live, false},
	KDisconnect:  {admission.Live, false},
	KMapLayers:   {admission.Live, false},
	KScenarios:   {admission.Live, false},
	KFusion:      {admission.Live, false},
	KLatest:      {admission.Live, true},
	KSeries:      {admission.Live, true},
	KSeriesAgg:   {admission.Live, true},
	KModelRun:    {admission.Model, true},
	KStormWindow: {admission.Model, false},
	KQuality:     {admission.Model, false},
	KLowFlow:     {admission.Model, false},
	KWPSExecute:  {admission.Bulk, false},
	KSOSInsert:   {admission.Ingest, false},
}

// tracedRun holds the replay's state.
type tracedRun struct {
	w       *world
	t       *Tracer
	ctx     context.Context
	sids    map[int]string
	inserts int
	// kernelAt is when the current uncached simulation passed request
	// validation (set by the observatory's run hook), 0 when none did.
	kernelAt atomic.Int64
	// sosDirect marks ops whose insert was traced through the sensor
	// network instead of the SOS handler; their layer sum is not the
	// route's, so self time skips them.
	sosDirect map[int]bool
}

// traceResult is the traced replay's output.
type traceResult struct {
	Spans []Span
	// WindowNs is the tracer time the measured window opened at.
	WindowNs  int64
	Digests   [][32]byte
	SOSDirect map[int]bool
	// Whole diffs the registry over the whole replay.
	Whole  delta
	Errors map[string]int
}

func runTraced(w *world, s *Stream) *traceResult {
	tr := &tracedRun{w: w, t: NewTracer(), ctx: context.Background(),
		sids: make(map[int]string), sosDirect: make(map[int]bool)}
	w.obs.SetRunHook(func(context.Context, core.RunRequest) error {
		tr.kernelAt.Store(tr.t.Now())
		return nil
	})
	defer w.obs.SetRunHook(nil)
	res := &traceResult{SOSDirect: tr.sosDirect, Errors: make(map[string]int)}
	start := w.obs.MetricsRegistry().Snapshot()
	n := 0
	cur := s.Open()
	for ci := 0; ; ci++ {
		chunk := cur.Next()
		if chunk == nil {
			break
		}
		if ci == 1 {
			res.WindowNs = tr.t.Now()
		}
		for i := range chunk {
			op := &chunk[i]
			if !op.AdvanceTo.IsZero() {
				tr.t.SetOp(-1)
				ticks := w.obs.LB.Ticks()
				id := tr.t.Begin("clock.advance")
				w.clk.AdvanceTo(op.AdvanceTo)
				tr.t.End(id)
				tr.t.spans[id].Size = int64(w.obs.LB.Ticks() - ticks)
			}
			tr.t.SetOp(n)
			digest, err := tr.exec(n, op)
			if err != nil {
				res.Errors[op.Kind.String()+": "+err.Error()]++
			}
			res.Digests = append(res.Digests, sha256.Sum256([]byte(digest)))
			if op.Drain {
				tr.t.SetOp(-1)
				id := tr.t.Begin("push.drain")
				w.drain()
				tr.t.End(id)
			}
			n++
		}
	}
	res.Spans = tr.t.Spans()
	res.Whole = delta{start, w.obs.MetricsRegistry().Snapshot()}
	return res
}

// call runs fn inside a span named name.
func (tr *tracedRun) call(name string, fn func()) int32 {
	id := tr.t.Begin(name)
	fn()
	tr.t.End(id)
	return id
}

// exec replays one request under a root span named after its route and
// returns its result digest, computed after the span closes.
func (tr *tracedRun) exec(n int, op *Op) (string, error) {
	root := tr.t.Begin(op.Kind.Route())
	v, digest, err := tr.handle(n, op)
	tr.t.End(root)
	if err != nil || digest != "" {
		return digest, err
	}
	// The portal's JSON writer is a json.Encoder: the same bytes plus a
	// newline.
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// handle makes the route handler's calls for one request. It returns
// either a value whose JSON encoding the handler would send, or a
// ready digest (the exact body, where the handler streams one).
func (tr *tracedRun) handle(n int, op *Op) (any, string, error) {
	o := tr.w.obs

	pol := policies[op.Kind]
	client := op.Client[:strings.LastIndexByte(op.Client, ':')]
	var admitErr error
	tr.call("admission.admit", func() {
		if pol.try {
			_, admitErr = o.Admission.TryAdmit(pol.class, client)
		} else {
			_, admitErr = o.Admission.Admit(tr.ctx, pol.class, client)
		}
	})
	if admitErr != nil {
		return nil, "", fmt.Errorf("admission: %w", admitErr)
	}
	defer tr.call("admission.release", func() { o.Admission.Release(pol.class) })

	var v any
	var err error
	switch op.Kind {
	case KConnect:
		tr.call("broker.connect", func() {
			var s broker.Session
			s, err = o.Broker.Connect(op.User, "topmodel")
			tr.sids[op.Visit], v = s.ID, s
		})
	case KSessionGet:
		tr.call("broker.session", func() { v, err = o.Broker.Session(tr.sids[op.Visit]) })
	case KDisconnect:
		tr.call("broker.disconnect", func() { err = o.Broker.Disconnect(tr.sids[op.Visit]) })
		return nil, "204", err
	case KMapLayers:
		var ids []string
		tr.call("catchment.outlines", func() {
			for _, c := range o.Catchments.All() {
				if op.Catchment != "" && c.ID != op.Catchment {
					continue
				}
				ids = append(ids, "outlet-"+c.ID)
				if _, e := c.Outline(); e == nil {
					ids = append(ids, "boundary-"+c.ID)
				}
			}
		})
		tr.call("sensor.list", func() {
			for _, s := range o.Network.Sensors() {
				if op.Catchment == "" || s.CatchmentID == op.Catchment {
					ids = append(ids, s.ID)
				}
			}
		})
		return nil, fmt.Sprint(ids), nil
	case KLatest:
		tr.call("sensor.latest", func() { v, err = o.Network.Latest(op.Sensor) })
	case KFusion:
		v, err = tr.fusion(op)
	case KSeries, KSeriesAgg:
		digest, err := tr.series(op)
		return nil, digest, err
	case KModelRun:
		digest, err := tr.modelRun(op)
		return nil, digest, err
	case KScenarios:
		tr.call("scenario.all", func() { v = scenario.All() })
	case KSOSInsert:
		digest, err := tr.sosInsert(n, op)
		return nil, digest, err
	case KWPSExecute:
		rec := newRecorder()
		req := op.Request()
		tr.call("wps.execute", func() { o.WPS.ServeHTTP(rec, req) })
		return nil, rec.body.String(), nil
	case KQuality:
		tr.call("core.quality", func() { v, err = o.RunQualityContext(tr.ctx, op.Catchment, op.Scenario) })
	case KLowFlow:
		tr.call("core.lowflow", func() { v, err = o.RunLowFlowContext(tr.ctx, op.Catchment, op.Scenario) })
	case KStormWindow:
		tr.call("core.storm_window", func() {
			var h int
			h, err = o.DriestStormWindowContext(tr.ctx, op.Catchment, 5)
			v = map[string]int{"stormAtHours": h}
		})
	}
	return v, "", err
}

// now mirrors the portal's default series end: just past the newest
// reading in the network.
func (tr *tracedRun) now() (time.Time, error) {
	var r sensor.Reading
	var err error
	tr.call("sensor.newest", func() { r, err = tr.w.obs.Network.Newest() })
	return r.Time.Add(time.Nanosecond), err
}

func (tr *tracedRun) fusion(op *Op) (any, error) {
	o := tr.w.obs
	at, err := tr.now()
	if err != nil {
		return nil, err
	}
	var fused sensor.FusedSample
	tr.call("sensor.fuse", func() {
		fused, err = o.Network.Fuse(op.Catchment+"-temp-1", op.Catchment+"-turb-1", op.Catchment+"-cam-1", at)
	})
	if err != nil {
		return nil, err
	}
	var series [2]json.RawMessage
	for i, id := range []string{op.Catchment + "-temp-1", op.Catchment + "-turb-1"} {
		var view []timeseries.Observation
		tr.call("sensor.history_view", func() { view, err = o.Network.HistoryView(id, at.Add(-24*time.Hour), at.Add(time.Nanosecond)) })
		if err != nil {
			return nil, err
		}
		series[i] = flotPairs(tr.downsample(view, op.Points))
	}
	return struct {
		sensor.FusedSample
		TemperatureSeries json.RawMessage `json:"temperatureSeries"`
		TurbiditySeries   json.RawMessage `json:"turbiditySeries"`
	}{fused, series[0], series[1]}, nil
}

func (tr *tracedRun) downsample(view []timeseries.Observation, points int) []timeseries.Observation {
	var out []timeseries.Observation
	id := tr.call("timeseries.downsample", func() { out = timeseries.Downsample(view, points) })
	tr.t.spans[id].Size = int64(len(view))
	return out
}

// series returns the streamed body itself: the portal writes the pairs
// without a JSON encoder.
func (tr *tracedRun) series(op *Op) (string, error) {
	o := tr.w.obs
	to, err := tr.now()
	if err != nil {
		return "", err
	}
	from := op.From
	if from.IsZero() {
		from = to.Add(-24 * time.Hour)
	}
	tr.call("sensor.read_stamp", func() { _, err = o.Network.ReadStamp(op.Sensor) })
	if err != nil {
		return "", err
	}
	if op.Kind == KSeriesAgg {
		buckets := int((to.Sub(from) + op.Step - 1) / op.Step)
		var aggs []timeseries.Aggregate
		tr.call("sensor.aggregate", func() { aggs, err = o.Network.AggregateSeries(op.Sensor, from, op.Step, buckets) })
		if err != nil {
			return "", err
		}
		var pairs []timeseries.Observation
		for i, a := range aggs {
			if a.Count > 0 {
				pairs = append(pairs, timeseries.Observation{Time: from.Add(time.Duration(i) * op.Step), Value: a.Mean()})
			}
		}
		return string(flotPairs(pairs)), nil
	}
	var view []timeseries.Observation
	tr.call("sensor.history_view", func() { view, err = o.Network.HistoryView(op.Sensor, from, to) })
	if err != nil {
		return "", err
	}
	if op.Points > 0 {
		view = tr.downsample(view, op.Points)
	}
	return string(flotPairs(view)), nil
}

// modelRun digests field by field: the hydrograph is compared as the
// raw bytes FlotJSON produced, without re-encoding 100 KiB per op.
func (tr *tracedRun) modelRun(op *Op) (string, error) {
	var res *core.RunResult
	var outcome runcache.Outcome
	var err error
	tr.kernelAt.Store(0)
	id := tr.call("core.run_model", func() {
		res, outcome, err = tr.w.obs.RunModelCachedContext(tr.ctx, *op.Run)
	})
	tr.t.spans[id].Note = outcome.String()
	if at := tr.kernelAt.Load(); at > 0 {
		kernel := "topmodel.run"
		if op.Run.Model == "fuse" {
			kernel = "fuse.ensemble"
		}
		tr.t.Add(kernel, id, at, tr.t.spans[id].End)
	}
	if err != nil {
		return "", err
	}
	var flot []byte
	enc := tr.call("timeseries.flot_encode", func() { flot, err = res.Discharge.FlotJSON() })
	tr.t.spans[enc].Size = int64(len(flot))
	if err != nil {
		return "", err
	}
	doc := map[string]json.RawMessage{"hydrograph": flot}
	for k, v := range map[string]any{
		"peakMm": res.PeakMM, "peakAt": res.PeakAt, "volumeMm": res.VolumeMM,
		"runoffRatio": res.RunoffRatio, "stormPeakMm": res.StormPeakMM,
		"model": res.Model, "scenario": res.Scenario,
	} {
		if doc[k], err = json.Marshal(v); err != nil {
			return "", err
		}
	}
	return fieldsDigest(doc), nil
}

// sosInsert traces every other insert through the SOS handler and the
// rest straight through the sensor network's ingest, so both layers get
// spans without nesting one inside the other.
func (tr *tracedRun) sosInsert(n int, op *Op) (string, error) {
	o := tr.w.obs
	tr.inserts++
	if tr.inserts%2 == 1 {
		rec := newRecorder()
		req := op.Request()
		tr.call("sos.insert", func() { o.SOS.ServeHTTP(rec, req) })
		var r struct {
			ID string `xml:"AssignedObservationId"`
		}
		if err := xml.Unmarshal(rec.body.Bytes(), &r); err != nil {
			return "", fmt.Errorf("decoding SOS answer: %w", err)
		}
		return r.ID, nil
	}
	tr.sosDirect[n] = true
	var err error
	tr.call("sensor.ingest", func() { err = o.Network.Ingest(op.Sensor, op.At, op.Value) })
	if err != nil {
		return "", err
	}
	var stamp sensor.ReadStamp
	tr.call("sensor.read_stamp", func() { stamp, err = o.Network.ReadStamp(op.Sensor) })
	return fmt.Sprintf("%s@%d", op.Sensor, stamp.Seq), err
}

// flotPairs renders observations as the portal's [[ms,value],...] JSON.
func flotPairs(obs []timeseries.Observation) json.RawMessage {
	buf := []byte{'['}
	for i, o := range obs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, o.Time.UnixMilli(), 10)
		buf = append(buf, ',')
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			buf = append(buf, "null"...)
		} else {
			buf = strconv.AppendFloat(buf, o.Value, 'g', -1, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, ']')
}
