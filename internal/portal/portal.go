// Package portal implements the EVOp web portal: the single HTTP surface
// through which all user groups reach the observatory (paper Sections
// III-IV). It serves:
//
//   - the interactive map layer: GeoJSON geotagged markers for sensors,
//     webcams and catchment outlets (the Fig. 4 landing page data);
//   - time-series widgets: sensor history in the Flot [[t,v],...] shape;
//   - the multimodal widget (Fig. 5): temperature + turbidity + webcam
//     frame fused at an instant;
//   - the LEFT modelling widget backend (Fig. 6): scenario presets and
//     on-demand model runs returning hydrographs;
//   - the REST asset API, the OGC WPS and SOS services;
//   - the Resource Broker's WebSocket session channel, over which
//     assignment/migration updates are pushed to the browser.
package portal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"time"

	"evop/internal/admission"
	"evop/internal/broker"
	"evop/internal/core"
	"evop/internal/hydro/topmodel"
	"evop/internal/metrics"
	"evop/internal/push"
	"evop/internal/rest"
	"evop/internal/scenario"
	"evop/internal/sensor"
	"evop/internal/timeseries"
	"evop/internal/weather"
	"evop/internal/ws"
)

// maxUploadBytes bounds dataset upload bodies; larger requests answer
// 413 instead of buffering unbounded CSV into memory.
const maxUploadBytes = 8 << 20

// sessionBroker is the slice of the Resource Broker the portal's session
// endpoints use. It exists so tests can inject faults (e.g. Subscribe
// failing after Connect succeeded) that the real broker cannot produce.
type sessionBroker interface {
	Connect(userID, service string) (broker.Session, error)
	Subscribe(sessionID string) (<-chan broker.Update, error)
	Disconnect(sessionID string) error
	Session(id string) (broker.Session, error)
}

// Portal is the EVOp web front end; it implements http.Handler.
type Portal struct {
	obs    *core.Observatory
	broker sessionBroker
	mux    *http.ServeMux
	logger *log.Logger

	// routes is the route table New declares (see routes.go).
	routes []route

	// reg is the observatory-wide metrics registry every portal
	// instrument registers into (see middleware.go, series.go).
	reg *metrics.Registry

	// Request-pipeline state (see middleware.go).
	inflight *metrics.Gauge
	panics   *metrics.Counter

	// Series read-path instruments (see series.go).
	series seriesInstruments

	// Admission-side instruments (see admission.go).
	admitInst admissionInstruments

	// The public documents, encoded once (see documents.go).
	mapCache    mapLayerCache
	scenarioDoc document

	// liveMu guards the /ws/live connection count against the
	// admission controller's cap; liveGauge mirrors it for /metrics.
	liveMu        sync.Mutex
	liveConns     int
	liveGauge     *metrics.Gauge
	liveEvictions *metrics.Counter

	// liveWG counts in-flight /ws/live handlers. http.Server.Shutdown
	// forgets hijacked connections, so ServeContext waits on this group
	// to let each live socket flush its going-away close frame before
	// the process exits.
	liveWG sync.WaitGroup
}

var _ http.Handler = (*Portal)(nil)

// New builds the portal over an observatory.
func New(obs *core.Observatory) (*Portal, error) {
	if obs == nil {
		return nil, errors.New("portal: nil observatory")
	}
	scenarioDoc, err := encodeDocument(scenario.All())
	if err != nil {
		return nil, fmt.Errorf("portal: encoding scenarios: %w", err)
	}
	reg := obs.MetricsRegistry()
	p := &Portal{
		obs:    obs,
		broker: obs.Broker,
		mux:    http.NewServeMux(),
		logger: log.New(io.Discard, "", 0),
		reg:    reg,
		inflight: reg.Gauge("evop_http_in_flight",
			"Requests currently being served."),
		panics: reg.Counter("evop_http_panics_total",
			"Handler panics caught by the recovery middleware."),
		series:    newSeriesInstruments(reg),
		admitInst: newAdmissionInstruments(reg),
		liveGauge: reg.Gauge("evop_ws_live_connections",
			"Open /ws/live WebSocket connections."),
		liveEvictions: reg.Counter("evop_ws_live_evictions_total",
			"Live WebSocket connections evicted as slow consumers."),
		scenarioDoc: scenarioDoc,
	}
	// The route table: every route's pattern (also its route label),
	// methods, handler and admission posture, declared once. A handler
	// never checks its own method; handle refuses an unlisted one with 405.
	p.routes = []route{
		// Exempt from admission: liveness and the operator's window
		// into an overload.
		{"/healthz", getHead, admission.Live, modeExempt, p.health},
		{"/metrics", getHead, admission.Live, modeExempt, p.metrics},

		// Ingest: losing these loses data.
		{"/sos", getHeadPost, admission.Ingest, modeGate, obs.SOS.ServeHTTP},
		{"/datasets/upload", postOnly, admission.Ingest, modeGate, p.uploadDataset},

		// Interactive reads; sensor reads degrade instead of queueing.
		{"/", getHead, admission.Live, modeGate, p.index},
		{"/api/", getHeadPutDelete, admission.Live, modeGate, rest.NewHandler(obs.Assets).ServeHTTP},
		{"/map/layers", getHead, admission.Live, modeGate, p.mapLayers},
		{"/sensors/", getHead, admission.Live, modeDegrade, p.sensors},
		{"/widgets/fusion", getHead, admission.Live, modeGate, p.fusion},
		{"/widgets/model/scenarios", getHead, admission.Live, modeGate, p.scenarios},
		{"/sessions/connect", postOnly, admission.Live, modeGate, p.sessionConnect},
		byMethod("/sessions/", admission.Live, modeGate, map[string]http.HandlerFunc{
			http.MethodGet: p.sessionGet, http.MethodHead: p.sessionGet, http.MethodDelete: p.sessionDelete,
		}),

		// WebSocket upgrades: rate limit only, since a connection
		// outlives any slot lease (plus the /ws/live connection cap,
		// enforced pre-upgrade in liveSocket).
		{"/ws/session", getOnly, admission.Live, modeRateOnly, p.sessionSocket},
		{"/ws/live", getOnly, admission.Live, modeRateOnly, p.liveSocket},

		// Fresh model computation; a saturated run serves a stale one.
		{"/widgets/model/run", postOnly, admission.Model, modeDegrade, p.modelRun},
		{"/widgets/model/storm-window", getHead, admission.Model, modeGate, p.stormWindow},
		{"/widgets/quality", getHead, admission.Model, modeGate, p.qualityWidget},
		{"/widgets/lowflow", getHead, admission.Model, modeGate, p.lowflowWidget},

		// Bulk: batch computation sheds first.
		{"/wps", getHeadPost, admission.Bulk, modeGate, obs.WPS.ServeHTTP},
		{"/workflows", getHeadPost, admission.Bulk, modeGate, obs.Workflows.ServeHTTP},
		{"/workflows/", getHeadPost, admission.Bulk, modeGate, obs.Workflows.ServeHTTP},
	}
	for i := range p.routes {
		p.handle(&p.routes[i])
	}
	return p, nil
}

// index serves a minimal landing page listing the portal's surfaces —
// the role of the paper's Fig. 4 landing page, without the Google Maps
// front end (the data contracts live at the listed endpoints).
func (p *Portal) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		rest.WriteError(w, http.StatusNotFound, "no route "+r.URL.Path)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, indexHTML)
}

const indexHTML = `<!DOCTYPE html>
<html><head><title>EVOp portal</title></head><body>
<h1>Environmental Virtual Observatory pilot</h1>
<p>A cloud-enabled virtual research space for environmental science.</p>
<ul>
<li><a href="/map/layers">/map/layers</a> &mdash; geotagged asset markers (GeoJSON)</li>
<li><a href="/api/catchments">/api/catchments</a>, <a href="/api/sensors">/api/sensors</a>, <a href="/api/models">/api/models</a>, <a href="/api/scenarios">/api/scenarios</a> &mdash; REST assets</li>
<li><a href="/sensors/morland-level-1/latest">/sensors/&lt;id&gt;/latest</a>, /sensors/&lt;id&gt;/series &mdash; live and historical readings</li>
<li><a href="/widgets/fusion?catchment=morland">/widgets/fusion</a> &mdash; multimodal sensor + webcam view</li>
<li><a href="/widgets/model/scenarios">/widgets/model/scenarios</a>, POST /widgets/model/run &mdash; the flood modelling widget</li>
<li><a href="/widgets/quality?catchment=morland&amp;scenario=compaction">/widgets/quality</a> &mdash; water-quality impact</li>
<li><a href="/wps?service=WPS&amp;request=GetCapabilities">/wps</a>, <a href="/sos?service=SOS&amp;request=GetCapabilities">/sos</a> &mdash; OGC services</li>
<li>POST /workflows &mdash; composed, replayable experiments</li>
<li><a href="/metrics">/metrics</a> &mdash; infrastructure snapshot</li>
<li>WS /ws/session &mdash; Resource Broker session channel</li>
<li>WS /ws/live?topics=sensor/&lt;id&gt;,catchment/&lt;id&gt;,sensors &mdash; live sensor telemetry push</li>
</ul>
</body></html>
`

func (p *Portal) health(w http.ResponseWriter, _ *http.Request) {
	rest.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// metrics serves the observatory's metrics registry: every layer's
// counters, gauges and histograms in one consistent snapshot. The JSON
// document is the registry Snapshot as is ({"metrics":[...]}, one entry
// per series, sorted by name then labels); ?format=prometheus — or an
// Accept header asking for text/plain — selects the Prometheus text
// exposition (version 0.0.4) of the same registry instead.
func (p *Portal) metrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", metrics.PrometheusContentType)
		_ = p.reg.WritePrometheus(w)
		return
	}
	rest.WriteJSON(w, http.StatusOK, p.reg.Snapshot())
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= wins; otherwise an Accept header naming text/plain selects
// the exposition, and everything else stays JSON.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// sensors serves /sensors/<id>/latest and /sensors/<id>/series.
func (p *Portal) sensors(w http.ResponseWriter, r *http.Request) {
	tail := r.URL.Path[len("/sensors/"):]
	var id, op string
	if i := strings.LastIndexByte(tail, '/'); i >= 0 {
		id, op = tail[:i], tail[i+1:]
	}
	switch op {
	case "latest":
		reading, err := p.obs.Network.Latest(id)
		if err != nil {
			writeSensorErr(w, err)
			return
		}
		rest.WriteJSON(w, http.StatusOK, reading)
	case "series":
		p.sensorSeries(w, r, id)
	default:
		rest.WriteError(w, http.StatusNotFound, "use /sensors/<id>/latest or /series")
	}
}

func writeSensorErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, sensor.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, sensor.ErrNoData):
		status = http.StatusNotFound
	case errors.Is(err, sensor.ErrBadSensor):
		status = http.StatusBadRequest
	}
	rest.WriteError(w, status, err.Error())
}

func (p *Portal) nowFallback() time.Time {
	// Use the newest reading across the network as "now" (maintained on
	// ingest, O(1)); fall back to wall clock for an idle network.
	if r, err := p.obs.Network.Newest(); err == nil {
		return r.Time.Add(time.Nanosecond)
	}
	return time.Now()
}

func timeOrDefault(raw string, def time.Time) time.Time {
	if raw == "" {
		return def
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		return def
	}
	return t
}

// fusion serves the Fig. 5 multimodal widget:
// ?catchment=morland&at=RFC3339[&points=N]. With points, the response
// also embeds the last 24 hours of the temperature and turbidity series,
// downsampled to at most N points each — the widget's sparklines arrive
// in the same round trip as the fused instant.
func (p *Portal) fusion(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	cid := q.Get("catchment")
	if cid == "" {
		rest.WriteError(w, http.StatusBadRequest, "catchment required")
		return
	}
	points, err := parsePoints(q.Get("points"))
	if err != nil {
		rest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	at := timeOrDefault(q.Get("at"), p.nowFallback())
	fused, err := p.obs.Network.Fuse(cid+"-temp-1", cid+"-turb-1", cid+"-cam-1", at)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	if points == 0 {
		rest.WriteJSON(w, http.StatusOK, fused)
		return
	}
	temp, err := p.downsampledSeries(cid+"-temp-1", at, points)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	turb, err := p.downsampledSeries(cid+"-turb-1", at, points)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	fields, err := json.Marshal(fused)
	if err != nil {
		rest.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeFlotObject(w, nil, fields, []flotMember{
		{"temperatureSeries", func(out io.Writer) error { return timeseries.WriteFlot(out, temp) }},
		{"turbiditySeries", func(out io.Writer) error { return timeseries.WriteFlot(out, turb) }},
	})
}

// statusForRunErr maps model-run pipeline errors onto HTTP statuses:
// unknown resources are 404, invalid parameters 400, an abandoned
// request 499 (the client is gone; the status is for logs and metrics),
// a deadline overrun 504, anything else 500. ErrUnknownCatchment wraps
// ErrBadConfig, so the not-found checks must come first.
func statusForRunErr(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrUnknownCatchment), errors.Is(err, core.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBadConfig), errors.Is(err, scenario.ErrUnknown),
		errors.Is(err, topmodel.ErrBadParams), errors.Is(err, weather.ErrBadConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeRunErr(w http.ResponseWriter, err error) {
	rest.WriteError(w, statusForRunErr(err), err.Error())
}

// qualityWidget answers the water-quality storyboard:
// GET /widgets/quality?catchment=morland&scenario=compaction.
func (p *Portal) qualityWidget(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	res, err := p.obs.RunQualityContext(r.Context(), q.Get("catchment"), q.Get("scenario"))
	if err != nil {
		writeRunErr(w, err)
		return
	}
	rest.WriteJSON(w, http.StatusOK, res)
}

// uploadDataset accepts a user-provided hourly rainfall CSV
// ("time,value" rows, RFC 3339 times):
// POST /datasets/upload?id=my-gauge  with the CSV as the body.
// The dataset becomes usable in model runs via "rainDataset".
func (p *Portal) uploadDataset(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	r.Body = http.MaxBytesReader(w, r.Body, maxUploadBytes)
	series, err := timeseries.ReadCSV(r.Body, time.Hour)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rest.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("upload exceeds %d bytes", tooBig.Limit))
			return
		}
		rest.WriteError(w, http.StatusBadRequest, "parsing CSV: "+err.Error())
		return
	}
	if err := p.obs.UploadDataset(id, series); err != nil {
		rest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rest.WriteJSON(w, http.StatusOK, map[string]any{"id": id, "samples": series.Len()})
}

// lowflowWidget answers the drought-side questions:
// GET /widgets/lowflow?catchment=morland&scenario=afforestation.
func (p *Portal) lowflowWidget(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	res, err := p.obs.RunLowFlowContext(r.Context(), q.Get("catchment"), q.Get("scenario"))
	if err != nil {
		writeRunErr(w, err)
		return
	}
	rest.WriteJSON(w, http.StatusOK, res)
}

// stormWindow suggests where to place a design storm so land-use effects
// are not masked by saturated antecedent conditions:
// GET /widgets/model/storm-window?catchment=morland.
func (p *Portal) stormWindow(w http.ResponseWriter, r *http.Request) {
	cid := r.URL.Query().Get("catchment")
	hours, err := p.obs.DriestStormWindowContext(r.Context(), cid, 5)
	if err != nil {
		writeRunErr(w, err)
		return
	}
	rest.WriteJSON(w, http.StatusOK, map[string]int{"stormAtHours": hours})
}

// maxRunBytes bounds a model-run request body: a RunRequest is a short
// JSON document, not a data upload.
const maxRunBytes = 1 << 20

// modelRun executes the LEFT modelling widget's request: a JSON
// core.RunRequest in, the hydrograph and summary out (hydrograph in Flot
// encoding, ready for the chart). Identical requests are served from the
// observatory's model-run cache — the X-Cache response header reports
// miss, hit or coalesced. When the model-run class is saturated, the
// last completed run of the same family is served instead, marked
// X-Degraded: stale-cache; with no stale entry available the request is
// shed with 503. A request the healthy path refuses gets the same status
// either way.
func (p *Portal) modelRun(w http.ResponseWriter, r *http.Request) {
	var req core.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rest.WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("run request exceeds %d bytes", tooBig.Limit))
			return
		}
		rest.WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	var res *core.RunResult
	if degraded(r) {
		stale, ok, err := p.obs.StaleRun(req)
		if err != nil {
			writeRunErr(w, err)
			return
		}
		if !ok {
			p.writeShed(w, admission.Model, 0, admission.ErrSaturated)
			return
		}
		p.markDegraded(w, "stale-cache")
		w.Header().Set("X-Cache", "stale")
		res = stale
	} else {
		fresh, outcome, err := p.obs.RunModelCachedContext(r.Context(), req)
		if err != nil {
			writeRunErr(w, err)
			return
		}
		w.Header().Set("X-Cache", outcome.String())
		res = fresh
	}
	// The body's members go out in sorted key order: "hydrograph" first,
	// then these, as declared.
	summary, err := json.Marshal(struct {
		Model       string    `json:"model"`
		PeakAt      time.Time `json:"peakAt"`
		PeakMM      float64   `json:"peakMm"`
		RunoffRatio float64   `json:"runoffRatio"`
		Scenario    string    `json:"scenario"`
		StormPeakMM float64   `json:"stormPeakMm"`
		VolumeMM    float64   `json:"volumeMm"`
	}{res.Model, res.PeakAt, res.PeakMM, res.RunoffRatio, res.Scenario, res.StormPeakMM, res.VolumeMM})
	if err != nil {
		rest.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeFlotObject(w, []flotMember{{"hydrograph", res.Discharge.WriteFlot}}, summary, nil)
}

// sessionConnect opens a broker session without a WebSocket (the polling
// comparator): POST /sessions/connect?user=&service=.
func (p *Portal) sessionConnect(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	s, err := p.broker.Connect(q.Get("user"), q.Get("service"))
	if err != nil {
		rest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	rest.WriteJSON(w, http.StatusOK, s)
}

// sessionGet polls a session's state: GET /sessions/<id>.
func (p *Portal) sessionGet(w http.ResponseWriter, r *http.Request) {
	s, err := p.broker.Session(r.URL.Path[len("/sessions/"):])
	if err != nil {
		rest.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	rest.WriteJSON(w, http.StatusOK, s)
}

// sessionDelete ends a session: DELETE /sessions/<id>.
func (p *Portal) sessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := p.broker.Disconnect(r.URL.Path[len("/sessions/"):]); err != nil {
		rest.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sessionSocket upgrades to a WebSocket, opens a broker session and
// pushes every session update as a JSON message — the paper's RB↔browser
// channel. The session ends when the socket closes.
func (p *Portal) sessionSocket(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, service := q.Get("user"), q.Get("service")
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		return // Upgrade already wrote the HTTP error
	}
	s, err := p.broker.Connect(user, service)
	if err != nil {
		conn.Close(ws.CloseInternalErr, err.Error())
		return
	}
	updates, err := p.broker.Subscribe(s.ID)
	if err != nil {
		// The session was connected but cannot be watched; end it rather
		// than leak a live broker session nobody is attached to.
		_ = p.broker.Disconnect(s.ID)
		conn.Close(ws.CloseInternalErr, err.Error())
		return
	}
	// Send the initial session snapshot.
	if !p.sendSession(conn, broker.Update{Kind: initialKind(s), Session: s}) {
		p.broker.Disconnect(s.ID)
		return
	}

	done := make(chan struct{})
	// Reader: detect client close; any inbound message is ignored.
	go func() {
		defer close(done)
		for {
			if _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()
	// Writer: forward updates until the session or socket ends.
	for {
		select {
		case u, ok := <-updates:
			if !ok {
				conn.Close(ws.CloseNormal, "session ended")
				<-done
				return
			}
			if !p.sendSession(conn, u) {
				p.broker.Disconnect(s.ID)
				<-done
				return
			}
		case <-done:
			p.broker.Disconnect(s.ID)
			return
		}
	}
}

// liveQueue is the per-connection buffer of the live telemetry stream;
// a stalled browser coalesces (oldest reading evicted) rather than
// stalling the hub or growing without bound.
const liveQueue = 64

// parseLiveTopics validates a comma-separated ?topics= list against the
// hub's namespaces and the deployed assets, so a typo answers 400
// before the WebSocket upgrade instead of a silent, empty stream.
func (p *Portal) parseLiveTopics(raw string) ([]string, error) {
	if raw == "" {
		return nil, errors.New("topics required: sensors, sensor/<id> or catchment/<id>")
	}
	var topics []string
	for _, t := range strings.Split(raw, ",") {
		t = strings.TrimSpace(t)
		switch {
		case t == push.TopicAllSensors:
		case strings.HasPrefix(t, "sensor/"):
			if _, err := p.obs.Network.Get(strings.TrimPrefix(t, "sensor/")); err != nil {
				return nil, fmt.Errorf("unknown sensor in topic %q", t)
			}
		case strings.HasPrefix(t, "catchment/"):
			if _, ok := p.obs.Catchments.Get(strings.TrimPrefix(t, "catchment/")); !ok {
				return nil, fmt.Errorf("unknown catchment in topic %q", t)
			}
		default:
			return nil, fmt.Errorf("bad topic %q: want sensors, sensor/<id> or catchment/<id>", t)
		}
		topics = append(topics, t)
	}
	return topics, nil
}

// liveSocket upgrades to a WebSocket and streams live sensor readings
// for the requested topics as JSON text messages — the paper's
// "event-based duplex, no polling" data path, generalised from session
// updates to telemetry: GET /ws/live?topics=sensor/<id>,catchment/<id>.
// The stream ends with a going-away close when the observatory shuts
// down (Network.Stop closes every hub subscription).
func (p *Portal) liveSocket(w http.ResponseWriter, r *http.Request) {
	p.liveWG.Add(1)
	defer p.liveWG.Done()
	topics, err := p.parseLiveTopics(r.URL.Query().Get("topics"))
	if err != nil {
		rest.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Connection cap, enforced before the upgrade hijacks the socket: a
	// full portal answers plain HTTP 503 + Retry-After, never a
	// half-done handshake.
	if !p.acquireLiveConn() {
		p.writeShed(w, admission.Live, 0, errLiveConnLimit)
		return
	}
	defer p.releaseLiveConn()
	sub, err := p.obs.Network.SubscribeTopics(liveQueue, topics...)
	if err != nil {
		// Only a network already stopped refuses subscriptions.
		rest.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	conn, err := ws.Upgrade(w, r)
	if err != nil {
		sub.Cancel()
		return // Upgrade already wrote the HTTP error
	}

	done := make(chan struct{})
	// Reader: detect client close; any inbound message is ignored.
	go func() {
		defer close(done)
		for {
			if _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()
	// Writer: forward readings until the hub or the socket ends. A
	// consumer whose queue stays saturated is evicted with a going-away
	// close: the hub's coalescing already protects memory, but a wedged
	// browser still pins a capped connection slot somebody responsive
	// could use.
	var meter slowMeter
	for {
		select {
		case reading, ok := <-sub.C():
			if !ok {
				conn.Close(ws.CloseGoingAway, "observatory shutting down")
				<-done
				return
			}
			payload, err := json.Marshal(reading)
			if err != nil || conn.WriteMessage(ws.OpText, payload) != nil {
				sub.Cancel()
				<-done
				return
			}
			if meter.observe(sub.Dropped()) {
				p.liveEvictions.Inc()
				sub.Cancel()
				conn.Close(ws.CloseGoingAway, "slow consumer: live readings dropping")
				<-done
				return
			}
		case <-done:
			sub.Cancel()
			return
		}
	}
}

// slowWindow is how many delivered live messages pass between
// slow-consumer checks; slowStrikes is how many consecutive saturated
// windows trigger eviction.
const (
	slowWindow  = 64
	slowStrikes = 3
)

// slowMeter detects a persistently slow live-socket consumer: every
// slowWindow delivered messages it compares the subscription's
// cumulative drop count against the previous check, and slowStrikes
// consecutive windows that each dropped a full queue's worth mean the
// consumer cannot keep up and should be evicted.
type slowMeter struct {
	writes      int
	strikes     int
	lastDropped uint64
}

// observe records one delivered message and the subscription's
// cumulative drop count; it reports whether to evict the consumer.
func (m *slowMeter) observe(dropped uint64) bool {
	if m.writes++; m.writes%slowWindow != 0 {
		return false
	}
	if dropped-m.lastDropped >= slowWindow {
		m.strikes++
	} else {
		m.strikes = 0
	}
	m.lastDropped = dropped
	return m.strikes >= slowStrikes
}

// errLiveConnLimit sheds a /ws/live upgrade at the connection cap.
var errLiveConnLimit = errors.New("live connection limit reached")

// acquireLiveConn claims a capped /ws/live connection slot.
func (p *Portal) acquireLiveConn() bool {
	limit := p.obs.Admission.LiveConnLimit()
	p.liveMu.Lock()
	defer p.liveMu.Unlock()
	if limit > 0 && p.liveConns >= limit {
		return false
	}
	p.liveConns++
	p.liveGauge.Add(1)
	return true
}

func (p *Portal) releaseLiveConn() {
	p.liveMu.Lock()
	p.liveConns--
	p.liveGauge.Add(-1)
	p.liveMu.Unlock()
}

func initialKind(s broker.Session) broker.UpdateKind {
	if s.State == broker.Active {
		return broker.UpdateAssigned
	}
	return broker.UpdateSuspended
}

func (p *Portal) sendSession(conn *ws.Conn, u broker.Update) bool {
	payload, err := json.Marshal(struct {
		Kind    string         `json:"kind"`
		Session broker.Session `json:"session"`
		Reason  string         `json:"reason,omitempty"`
	}{u.Kind.String(), u.Session, u.Reason})
	if err != nil {
		return false
	}
	return conn.WriteMessage(ws.OpText, payload) == nil
}
