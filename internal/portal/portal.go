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
	"evop/internal/geo"
	"evop/internal/hydro/topmodel"
	"evop/internal/metrics"
	"evop/internal/push"
	"evop/internal/rest"
	"evop/internal/scenario"
	"evop/internal/sensor"
	"evop/internal/timeseries"
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
	}
	p.handle("/api/", rest.NewHandler(obs.Assets))
	p.handle("/wps", obs.WPS)
	p.handle("/sos", obs.SOS)
	p.handleFunc("/", p.index)
	p.handleFunc("/healthz", p.health)
	p.handleFunc("/metrics", p.metrics)
	p.handleFunc("/map/layers", p.mapLayers)
	p.handleFunc("/sensors/", p.sensors)
	p.handleFunc("/widgets/fusion", p.fusion)
	p.handleFunc("/widgets/model/run", p.modelRun)
	p.handleFunc("/widgets/model/scenarios", p.scenarios)
	p.handleFunc("/widgets/model/storm-window", p.stormWindow)
	p.handleFunc("/widgets/quality", p.qualityWidget)
	p.handleFunc("/widgets/lowflow", p.lowflowWidget)
	p.handleFunc("/datasets/upload", p.uploadDataset)
	p.handleFunc("/sessions/connect", p.sessionConnect)
	p.handleFunc("/sessions/", p.sessionGet)
	p.handleFunc("/ws/session", p.sessionSocket)
	p.handleFunc("/ws/live", p.liveSocket)
	p.handle("/workflows", obs.Workflows)
	p.handle("/workflows/", obs.Workflows)
	return p, nil
}

// index serves a minimal landing page listing the portal's surfaces —
// the role of the paper's Fig. 4 landing page, without the Google Maps
// front end (the data contracts live at the listed endpoints).
func (p *Portal) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no route " + r.URL.Path})
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

// mapLayers serves the geotagged marker layer: every sensor and every
// catchment outlet, optionally filtered by ?catchment=.
func (p *Portal) mapLayers(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("catchment")
	var fc geo.FeatureCollection
	for _, c := range p.obs.Catchments.All() {
		if filter != "" && c.ID != filter {
			continue
		}
		fc.Features = append(fc.Features, geo.Feature{
			ID:       "outlet-" + c.ID,
			Geometry: c.Outlet,
			Properties: map[string]any{
				"type": "catchmentOutlet", "name": c.Name, "catchment": c.ID,
			},
		})
		if poly, err := c.Outline(); err == nil {
			fc.Features = append(fc.Features, geo.Feature{
				ID:      "boundary-" + c.ID,
				Outline: poly.Ring(),
				Properties: map[string]any{
					"type": "catchmentBoundary", "name": c.Name, "catchment": c.ID,
					"areaKm2": c.AreaKM2,
				},
			})
		}
	}
	for _, s := range p.obs.Network.Sensors() {
		if filter != "" && s.CatchmentID != filter {
			continue
		}
		fc.Features = append(fc.Features, geo.Feature{
			ID:       s.ID,
			Geometry: s.Location,
			Properties: map[string]any{
				"type": "sensor", "kind": s.Kind.String(), "unit": s.Kind.Unit(),
				"catchment": s.CatchmentID,
			},
		})
	}
	rest.WriteJSON(w, http.StatusOK, fc)
}

// sensors serves /sensors/<id>/latest and /sensors/<id>/series.
func (p *Portal) sensors(w http.ResponseWriter, r *http.Request) {
	rest := r.URL.Path[len("/sensors/"):]
	var id, op string
	if i := lastSlash(rest); i >= 0 {
		id, op = rest[:i], rest[i+1:]
	}
	switch op {
	case "latest":
		reading, err := p.obs.Network.Latest(id)
		if err != nil {
			writeSensorErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, reading)
	case "series":
		p.sensorSeries(w, r, id)
	default:
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "use /sensors/<id>/latest or /series"})
	}
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	rest.WriteJSON(w, status, v)
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
	writeJSON(w, status, map[string]string{"error": err.Error()})
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
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "catchment required"})
		return
	}
	points, err := parsePoints(q.Get("points"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	at := timeOrDefault(q.Get("at"), p.nowFallback())
	fused, err := p.obs.Network.Fuse(cid+"-temp-1", cid+"-turb-1", cid+"-cam-1", at)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	if points == 0 {
		writeJSON(w, http.StatusOK, fused)
		return
	}
	tempSeries, err := p.downsampledSeriesJSON(cid+"-temp-1", at, points)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	turbSeries, err := p.downsampledSeriesJSON(cid+"-turb-1", at, points)
	if err != nil {
		writeSensorErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		sensor.FusedSample
		TemperatureSeries json.RawMessage `json:"temperatureSeries"`
		TurbiditySeries   json.RawMessage `json:"turbiditySeries"`
	}{fused, tempSeries, turbSeries})
}

// scenarios lists the widget's preset buttons.
func (p *Portal) scenarios(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, scenario.All())
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
		errors.Is(err, topmodel.ErrBadParams):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func writeRunErr(w http.ResponseWriter, err error) {
	writeJSON(w, statusForRunErr(err), map[string]string{"error": err.Error()})
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
	writeJSON(w, http.StatusOK, res)
}

// uploadDataset accepts a user-provided hourly rainfall CSV
// ("time,value" rows, RFC 3339 times):
// POST /datasets/upload?id=my-gauge  with the CSV as the body.
// The dataset becomes usable in model runs via "rainDataset".
func (p *Portal) uploadDataset(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	id := r.URL.Query().Get("id")
	r.Body = http.MaxBytesReader(w, r.Body, maxUploadBytes)
	series, err := timeseries.ReadCSV(r.Body, time.Hour)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("upload exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "parsing CSV: " + err.Error()})
		return
	}
	if err := p.obs.UploadDataset(id, series); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "samples": series.Len()})
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
	writeJSON(w, http.StatusOK, res)
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
	writeJSON(w, http.StatusOK, map[string]int{"stormAtHours": hours})
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
// shed with 503.
func (p *Portal) modelRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	var req core.RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("run request exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid JSON: " + err.Error()})
		return
	}
	var res *core.RunResult
	if degraded(r) {
		stale, ok := p.obs.StaleRun(req)
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
	flot, err := res.Discharge.FlotJSON()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"hydrograph":  json.RawMessage(flot),
		"peakMm":      res.PeakMM,
		"peakAt":      res.PeakAt,
		"volumeMm":    res.VolumeMM,
		"runoffRatio": res.RunoffRatio,
		"stormPeakMm": res.StormPeakMM,
		"model":       res.Model,
		"scenario":    res.Scenario,
	})
}

// sessionConnect opens a broker session without a WebSocket (the polling
// comparator): POST /sessions/connect?user=&service=.
func (p *Portal) sessionConnect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST required"})
		return
	}
	q := r.URL.Query()
	s, err := p.broker.Connect(q.Get("user"), q.Get("service"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s)
}

// sessionGet polls a session's state: GET /sessions/<id>. DELETE ends it.
func (p *Portal) sessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Path[len("/sessions/"):]
	switch r.Method {
	case http.MethodGet:
		s, err := p.broker.Session(id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, s)
	case http.MethodDelete:
		if err := p.broker.Disconnect(id); err != nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": r.Method})
	}
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
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
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
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
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
	limit := 0
	if p.obs.Admission != nil {
		limit = p.obs.Admission.LiveConnLimit()
	}
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
