package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"time"

	"evop/internal/core"
	"evop/internal/hydro/topmodel"
	"evop/internal/weather"
)

// Kind names one user action against the portal.
type Kind uint8

// The actions the three workloads are built from.
const (
	KConnect Kind = iota
	KMapLayers
	KLatest
	KFusion
	KSeries
	KSeriesAgg
	KModelRun
	KScenarios
	KSessionGet
	KDisconnect
	KSOSInsert
	KWPSExecute
	KQuality
	KLowFlow
	KStormWindow
	numKinds
)

var kindNames = [numKinds]string{
	"connect", "map_layers", "latest", "fusion", "series", "series_agg",
	"model_run", "scenarios", "session_get", "disconnect", "sos_insert",
	"wps_execute", "quality", "lowflow", "storm_window",
}

func (k Kind) String() string { return kindNames[k] }

// Routes are the portal routes the per-layer metrics are reported for.
// Several kinds share a route: the three session actions are "sessions",
// raw and aggregated series reads are "series".
var Routes = []string{
	"model_run", "series", "fusion", "map_layers", "latest", "sessions",
	"scenarios", "sos_insert", "wps_execute", "quality", "lowflow", "storm_window",
}

// Route maps a kind onto its reporting route.
func (k Kind) Route() string {
	switch k {
	case KConnect, KSessionGet, KDisconnect:
		return "sessions"
	case KSeriesAgg:
		return "series"
	}
	return k.String()
}

// Op is one request of the generated stream, plus the clock and hub
// actions that surround it. Everything here is fixed by the workload
// seed; the only runtime-resolved value is the broker session ID of a
// public_browse visit.
type Op struct {
	Kind      Kind
	Client    string // RemoteAddr of the virtual user
	User      string // broker user for KConnect
	Visit     int    // visit whose session a session op uses
	Sensor    string
	Catchment string
	Scenario  string
	Points    int
	From      time.Time     // series window start; zero keeps the handler default
	Step      time.Duration // aggregate bucket width
	At        time.Time     // SOS sampling time
	Value     float64       // SOS observation
	Run       *core.RunRequest
	Body      string // request body (model run JSON, SOS XML)
	WPSInputs string
	// AdvanceTo, when non-zero, moves the simulated clock to this
	// instant before the request (untimed as latency, counted in the
	// chunk's wall time).
	AdvanceTo time.Time
	// Drain empties the hub subscriptions after the request.
	Drain bool
}

// Stream is a workload's op sequence for one seed, split into chunks:
// the first chunk is untimed warm-up, the rest are measured, and each
// measured chunk yields one throughput and CPU sample. Chunks are
// generated on demand, so the benchmark never holds more than one
// chunk of requests in memory beside the program it measures.
type Stream struct {
	Workload string
	Seed     int64
	Chunks   int // warm-up chunk included
	w        Workload
}

// Cursor yields a stream's chunks in order.
type Cursor struct {
	rng  *rand.Rand
	gen  generator
	left int
}

// Open starts the stream from its first chunk; every cursor of a stream
// yields the same ops.
func (s *Stream) Open() *Cursor {
	return &Cursor{rng: rand.New(rand.NewSource(s.Seed)), gen: s.w.newGen(), left: s.Chunks}
}

// Next returns the next chunk, or nil after the last.
func (c *Cursor) Next() []Op {
	if c.left == 0 {
		return nil
	}
	c.left--
	return c.gen.chunk(c.rng)
}

// Summary walks the whole stream once and reports its op count and a
// digest of every op in order: two streams with the same digest drive
// the portal identically.
func (s *Stream) Summary() (ops int, digest string) {
	h := sha256.New()
	cur := s.Open()
	for ci := 0; ; ci++ {
		chunk := cur.Next()
		if chunk == nil {
			break
		}
		fmt.Fprintf(h, "chunk %d\n", ci)
		for i := range chunk {
			op := &chunk[i]
			fmt.Fprintf(h, "%d|%s|%s|%d|%s|%s|%s|%d|%d|%d|%d|%v|%q|%q|%d|%t\n",
				op.Kind, op.Client, op.User, op.Visit, op.Sensor, op.Catchment, op.Scenario,
				op.Points, op.From.UnixNano(), op.Step, op.At.UnixNano(), op.Value,
				op.Body, op.WPSInputs, op.AdvanceTo.UnixNano(), op.Drain)
		}
		ops += len(chunk)
	}
	return ops, hex.EncodeToString(h.Sum(nil))
}

// Request renders the op as an HTTP request to the portal. Session ops
// carry a placeholder path the runner completes with the visit's
// session ID.
func (op *Op) Request() *http.Request {
	var method, target string
	switch op.Kind {
	case KConnect:
		method, target = http.MethodPost, "/sessions/connect?service=topmodel&user="+url.QueryEscape(op.User)
	case KMapLayers:
		method, target = http.MethodGet, "/map/layers"
		if op.Catchment != "" {
			target += "?catchment=" + op.Catchment
		}
	case KLatest:
		method, target = http.MethodGet, "/sensors/"+op.Sensor+"/latest"
	case KFusion:
		method, target = http.MethodGet, "/widgets/fusion?catchment="+op.Catchment+"&points="+strconv.Itoa(op.Points)
	case KSeries:
		target = "/sensors/" + op.Sensor + "/series?points=" + strconv.Itoa(op.Points)
		if !op.From.IsZero() {
			target += "&from=" + op.From.Format(time.RFC3339)
		}
		method = http.MethodGet
	case KSeriesAgg:
		method, target = http.MethodGet, "/sensors/"+op.Sensor+"/series?agg=mean&step="+op.Step.String()+
			"&from="+op.From.Format(time.RFC3339)
	case KModelRun:
		method, target = http.MethodPost, "/widgets/model/run"
	case KScenarios:
		method, target = http.MethodGet, "/widgets/model/scenarios"
	case KSessionGet:
		method, target = http.MethodGet, "/sessions/pending"
	case KDisconnect:
		method, target = http.MethodDelete, "/sessions/pending"
	case KSOSInsert:
		method, target = http.MethodPost, "/sos"
	case KWPSExecute:
		method, target = http.MethodGet, "/wps?service=WPS&request=Execute&identifier=topmodel&datainputs="+
			url.QueryEscape(op.WPSInputs)
	case KQuality:
		method, target = http.MethodGet, "/widgets/quality?catchment="+op.Catchment+"&scenario="+op.Scenario
	case KLowFlow:
		method, target = http.MethodGet, "/widgets/lowflow?catchment="+op.Catchment+"&scenario="+op.Scenario
	case KStormWindow:
		method, target = http.MethodGet, "/widgets/model/storm-window?catchment="+op.Catchment
	}
	var req *http.Request
	if op.Body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(op.Body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	req.RemoteAddr = op.Client
	return req
}

// WantStatus is the only status a correct portal may answer the op with.
func (op *Op) WantStatus() int {
	if op.Kind == KDisconnect {
		return http.StatusNoContent
	}
	return http.StatusOK
}

// The simulated world every workload runs in: the LEFT deployment's
// three catchments and four land-use presets, on a clock that starts
// with the forcing record.
var (
	simStart   = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	catchments = []string{"morland", "tarland", "machynlleth"}
	scenarios  = []string{"baseline", "afforestation", "compaction", "storage"}
	// gauges are the twelve non-webcam sensors, the ones SOS can ingest.
	gauges = func() []string {
		var out []string
		for _, c := range catchments {
			for _, k := range []string{"level", "rain", "temp", "turb"} {
				out = append(out, c+"-"+k+"-1")
			}
		}
		return out
	}()
)

const (
	backfill   = 30 * 24 * time.Hour
	lbInterval = 10 * time.Second
	// hydrographHours bounds storm placement inside the default
	// 120-day forcing record, leaving room for the 48-hour storm window.
	hydrographHours = 120*24 - 72
)

// Workload describes one named load: how its ops are generated and
// how many chunks one second of --seconds buys on the reference host.
type Workload struct {
	Name string
	// ChunksPerSecond converts --seconds into the measured chunk count,
	// so the op stream depends only on (seed, seconds), never on how
	// fast the host happens to be.
	ChunksPerSecond float64
	newGen          func() generator
}

// generator produces a workload's chunks one after another; it carries
// the state that spans chunks (simulated time, user numbering).
type generator interface {
	chunk(rng *rand.Rand) []Op
}

// Workloads lists every workload the benchmark knows, in report order.
var Workloads = []Workload{
	{Name: "public_browse", ChunksPerSecond: 2.0, newGen: func() generator { return &browseGen{now: simStart.Add(backfill)} }},
	{Name: "model_explore", ChunksPerSecond: 1.5, newGen: func() generator { return &exploreGen{} }},
	{Name: "sensor_ingest", ChunksPerSecond: 2.0, newGen: func() generator {
		// Sampling times sit 250ms off the whole second, so an ingested
		// reading never shares an instant with a sampler's reading.
		return &ingestGen{at: simStart.Add(backfill).Add(250 * time.Millisecond)}
	}},
}

// Generate returns the op stream of a workload: one warm-up chunk plus
// the measured chunks that --seconds asks for.
func Generate(name string, seed int64, seconds int) (*Stream, error) {
	for _, w := range Workloads {
		if w.Name == name {
			measured := int(math.Ceil(float64(seconds) * w.ChunksPerSecond))
			if measured < 1 {
				measured = 1
			}
			return &Stream{Workload: name, Seed: seed, Chunks: 1 + measured, w: w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// deck returns the kinds with the given counts in a seeded random order:
// every chunk gets exactly the workload's mix, so chunks differ only in
// order and parameters.
func deck(rng *rand.Rand, counts map[Kind]int) []Kind {
	var out []Kind
	for k := Kind(0); k < numKinds; k++ {
		for i := 0; i < counts[k]; i++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// visitsPerWave is how many public visits one public_browse chunk
// interleaves: enough open sessions at once to cloudburst. modelVisits
// of them (40%) run a model preset, the rest list the presets.
const (
	visitsPerWave = 200
	modelVisits   = 80
)

// opsPerTick is how many public_browse ops pass between load-balancer
// intervals on the simulated clock.
const opsPerTick = 100

// browseStorm is the design storm every public scenario preset runs
// with; 3 catchments x 4 presets make the 12 distinct run keys.
var browseStorm = weather.DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}

type browseGen struct {
	now       time.Time
	sinceTick int
	visits    int
}

func (g *browseGen) chunk(rng *rand.Rand) []Op {
	widgets := deck(rng, map[Kind]int{KModelRun: modelVisits, KScenarios: visitsPerWave - modelVisits})
	visits := make([][]Op, visitsPerWave)
	for v := range visits {
		visit := g.visits
		g.visits++
		c := pick(rng, catchments)
		client := fmt.Sprintf("10.%d.%d.%d:40000", 100+visit/65536, visit/256%256, visit%256)
		base := Op{Client: client, Visit: visit, Catchment: c}
		step := func(k Kind) Op { op := base; op.Kind = k; return op }
		connect := step(KConnect)
		connect.User = fmt.Sprintf("visitor-%d", visit)
		overview := step(KMapLayers)
		overview.Catchment = ""
		latest := step(KLatest)
		latest.Sensor = c + "-" + pick(rng, []string{"level", "rain", "temp", "turb"}) + "-1"
		day := step(KSeries)
		day.Sensor, day.Points = latest.Sensor, 200
		fusion := step(KFusion)
		fusion.Points = 24
		week := step(KSeries)
		week.Sensor, week.Points = c+"-level-1", 400
		month := step(KSeriesAgg)
		month.Sensor = c + "-" + pick(rng, []string{"level", "rain"}) + "-1"
		month.Step = 6 * time.Hour
		widget := step(widgets[v])
		if widget.Kind == KModelRun {
			widget.Scenario = pick(rng, scenarios)
			widget.Run = &core.RunRequest{
				CatchmentID: c, ScenarioID: widget.Scenario, Model: "topmodel",
				Storm: &browseStorm, StormAtHours: 24 * 60,
			}
			widget.Body = mustJSON(widget.Run)
		}
		visits[v] = []Op{connect, overview, step(KMapLayers), latest, day, fusion, week, month, widget,
			step(KSessionGet), step(KDisconnect)}
	}
	// Interleave the visits: each next op comes from a random visit that
	// still has steps left, so sessions overlap like real ones.
	live := make([]int, len(visits))
	for i := range live {
		live[i] = i
	}
	var chunk []Op
	for len(live) > 0 {
		j := rng.Intn(len(live))
		v := live[j]
		op := visits[v][0]
		visits[v] = visits[v][1:]
		if len(visits[v]) == 0 {
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if g.sinceTick++; g.sinceTick == opsPerTick {
			g.sinceTick = 0
			g.now = g.now.Add(lbInterval)
			op.AdvanceTo = g.now
		}
		switch op.Kind {
		case KSeries:
			if op.Points == 400 {
				op.From = g.now.Add(-7 * 24 * time.Hour)
			}
		case KSeriesAgg:
			op.From = g.now.Add(-28 * 24 * time.Hour)
		}
		chunk = append(chunk, op)
	}
	return chunk
}

// exploreChunk is one model_explore chunk's mix: 70% TOPMODEL slider
// runs, 10% FUSE ensembles, 10% WPS executions and the three analysis
// widgets.
var exploreChunk = map[Kind]int{KModelRun: 120, KWPSExecute: 15, KStormWindow: 5, KQuality: 5, KLowFlow: 5}

// exploreFUSE is how many of a chunk's model runs are FUSE ensembles.
const exploreFUSE = 15

// exploreUsers is how many scientists share the model_explore load.
const exploreUsers = 128

type exploreGen struct{ n int }

func (g *exploreGen) chunk(rng *rand.Rand) []Op {
	kinds := deck(rng, exploreChunk)
	fuse := make([]bool, exploreChunk[KModelRun])
	for i := 0; i < exploreFUSE; i++ {
		fuse[i] = true
	}
	rng.Shuffle(len(fuse), func(i, j int) { fuse[i], fuse[j] = fuse[j], fuse[i] })
	chunk := make([]Op, len(kinds))
	for i, k := range kinds {
		op := Op{
			Kind:      k,
			Client:    fmt.Sprintf("10.1.0.%d:41000", g.n%exploreUsers),
			Catchment: pick(rng, catchments),
			Scenario:  pick(rng, scenarios),
		}
		g.n++
		isFUSE := k == KModelRun && fuse[0]
		if k == KModelRun {
			fuse = fuse[1:]
		}
		switch {
		case isFUSE:
			// A FUSE ensemble with the storm placed anywhere in the
			// record.
			op.Run = &core.RunRequest{CatchmentID: op.Catchment, ScenarioID: op.Scenario, Model: "fuse",
				Storm:        &weather.DesignStorm{TotalDepthMM: float64(20 + rng.Intn(80)), Duration: 6 * time.Hour, PeakFraction: 0.4},
				StormAtHours: 48 + rng.Intn(hydrographHours-48)}
		case k == KModelRun:
			// A slider run: seeded parameters make every key unique.
			p := topmodel.DefaultParams()
			p.M = 10 + 40*rng.Float64()
			p.LnTe = 4 + 3*rng.Float64()
			p.SRMax = 20 + 40*rng.Float64()
			p.TD = 0.5 + 4*rng.Float64()
			op.Run = &core.RunRequest{CatchmentID: op.Catchment, ScenarioID: op.Scenario,
				Model: "topmodel", TOPMODELParams: &p}
		case k == KWPSExecute:
			op.WPSInputs = fmt.Sprintf("catchment=%s;scenario=%s;stormDepthMm=%.1f;stormHours=6;stormAtHours=%d",
				op.Catchment, op.Scenario, 10+90*rng.Float64(), 48+rng.Intn(hydrographHours-48))
		}
		if op.Run != nil {
			op.Body = mustJSON(op.Run)
		}
		chunk[i] = op
	}
	return chunk
}

// ingestChunk is one sensor_ingest chunk's mix: 75% SOS inserts, the
// rest dashboard reads. The series reads are the slowest mode and 15% of
// ops, so the p90 falls inside them rather than on their edge.
var ingestChunk = map[Kind]int{KSOSInsert: 6000, KSeries: 1200, KLatest: 800}

// drainEvery is how many sensor_ingest ops pass between hub drains; the
// subscriptions' queues are smaller than the readings published in that
// span, so newest-wins coalescing runs.
const drainEvery = 16

type ingestGen struct {
	at time.Time
	n  int
}

func (g *ingestGen) chunk(rng *rand.Rand) []Op {
	kinds := deck(rng, ingestChunk)
	chunk := make([]Op, len(kinds))
	for i, k := range kinds {
		op := Op{Kind: k, Sensor: pick(rng, gauges)}
		switch k {
		case KSOSInsert:
			g.at = g.at.Add(time.Duration(1+rng.Intn(5)) * time.Second)
			op.At, op.AdvanceTo = g.at, g.at
			op.Value = math.Round(rng.Float64()*20000) / 1000
			op.Client = fmt.Sprintf("10.2.0.%d:42000", indexOf(gauges, op.Sensor))
			op.Body = sosInsertXML(op.Sensor, op.At, op.Value)
		case KSeries:
			op.Points = 200
		}
		if op.Client == "" {
			op.Client = fmt.Sprintf("10.3.0.%d:43000", rng.Intn(32))
		}
		g.n++
		op.Drain = g.n%drainEvery == 0
		chunk[i] = op
	}
	return chunk
}

func sosInsertXML(sensor string, at time.Time, v float64) string {
	return `<sos:InsertObservation xmlns:sos="http://www.opengis.net/sos/1.0" xmlns:om="http://www.opengis.net/om/1.0">` +
		`<om:Observation><om:procedure>` + sensor + `</om:procedure>` +
		`<om:samplingTime>` + at.Format(time.RFC3339Nano) + `</om:samplingTime>` +
		`<om:result>` + strconv.FormatFloat(v, 'g', -1, 64) + `</om:result></om:Observation></sos:InsertObservation>`
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of this package are marshalled
	}
	return string(b)
}
