// Package wps implements an OGC Web Processing Service (WPS 1.0-style)
// interface over HTTP. The paper adopts WPS for all model implementations
// because "most of the standards in the geospatial analysis community are
// specified using SOAP services. Conforming to these standards is of high
// priority" — EVOp compromises its otherwise-RESTful architecture to keep
// models pluggable and composable with other OGC-compliant services.
//
// Supported operations (KVP GET binding):
//
//	?service=WPS&request=GetCapabilities
//	?service=WPS&request=DescribeProcess&identifier=<id>
//	?service=WPS&request=Execute&identifier=<id>&datainputs=k1=v1;k2=v2
//	?service=WPS&request=Execute&...&storeExecuteResponse=true   (async)
//	?service=WPS&request=GetStatus&executionid=<id>
//
// Responses are XML documents resembling the WPS response shapes
// (capabilities, process descriptions, execute responses with status).
package wps

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"evop/internal/metrics"
	"evop/internal/ogc"
	"evop/internal/sched"
	"evop/internal/timeseries"
)

// Common errors.
var (
	// ErrNoProcess indicates an unknown process identifier.
	ErrNoProcess = errors.New("wps: process not found")
	// ErrBadRequest indicates a malformed WPS request.
	ErrBadRequest = errors.New("wps: bad request")
	// ErrNoExecution indicates an unknown execution ID.
	ErrNoExecution = errors.New("wps: execution not found")
)

// ParamDesc describes one process input or output.
type ParamDesc struct {
	// Identifier is the parameter name.
	Identifier string `xml:"ows:Identifier"`
	// Title is the human-readable name.
	Title string `xml:"ows:Title"`
	// Abstract describes the parameter.
	Abstract string `xml:"ows:Abstract,omitempty"`
	// DataType is the literal type ("double", "integer", "string").
	DataType string `xml:"LiteralData>ows:DataType,omitempty"`
	// Optional marks inputs with defaults.
	Optional bool `xml:"-"`
}

// Process is a computation exposed through the WPS interface. Inputs and
// outputs are maps of Values: small literal parameters, and series
// passed by reference.
type Process interface {
	// Identifier is the process name in the capabilities document.
	Identifier() string
	// Title is the display name.
	Title() string
	// Abstract describes the process.
	Abstract() string
	// Inputs describes accepted inputs.
	Inputs() []ParamDesc
	// Outputs describes produced outputs.
	Outputs() []ParamDesc
	// Execute runs the process. Long-running processes should observe ctx
	// and stop early when it ends: synchronous executions receive the HTTP
	// request's context (cancelled when the client disconnects),
	// asynchronous executions the service's lifecycle context.
	Execute(ctx context.Context, inputs map[string]Value) (map[string]Value, error)
}

// Value is one process input or output: a literal string, or a series
// the process already holds. A series travels by reference and becomes
// Flot text only where bytes leave the process: streamed into an
// ExecuteResponse, or through String and MarshalJSON.
type Value struct {
	lit    string
	series *timeseries.Series
}

// Literal returns a literal value.
func Literal(s string) Value { return Value{lit: s} }

// SeriesValue returns a value holding s by reference; s must not be
// mutated while the value is in use.
func SeriesValue(s *timeseries.Series) Value { return Value{series: s} }

// Series returns the series the value holds, or nil for a literal.
func (v Value) Series() *timeseries.Series { return v.series }

// String returns a literal as is and a series as its Flot text.
func (v Value) String() string {
	if v.series == nil {
		return v.lit
	}
	var b strings.Builder
	_ = v.series.WriteFlot(&b)
	return b.String()
}

// MarshalJSON encodes the value as a JSON string of its String text. A
// series' Flot text holds only digits, "[],.-+e" and "null", none of
// which JSON escapes, so it is streamed between the quotes into the one
// buffer returned.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.series == nil {
		return json.Marshal(v.lit)
	}
	var b bytes.Buffer
	b.WriteByte('"')
	if err := v.series.WriteFlot(&b); err != nil {
		return nil, err
	}
	b.WriteByte('"')
	return b.Bytes(), nil
}

// Status is an asynchronous execution state.
type Status int

// Execution states.
const (
	StatusAccepted Status = iota + 1
	StatusRunning
	StatusSucceeded
	StatusFailed
)

// String returns the WPS status element name.
func (s Status) String() string {
	switch s {
	case StatusAccepted:
		return "ProcessAccepted"
	case StatusRunning:
		return "ProcessStarted"
	case StatusSucceeded:
		return "ProcessSucceeded"
	case StatusFailed:
		return "ProcessFailed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// retainedExecutions is how many terminal (succeeded or failed) async
// executions stay queryable through GetStatus. Older terminal ones are
// forgotten, releasing their outputs; running and accepted executions
// are never evicted, and the pool's async bound already caps them.
const retainedExecutions = 1024

// execution tracks one async run.
type execution struct {
	id      string
	process string
	status  Status
	outputs map[string]Value
	err     string
}

// Options configures a WPS service beyond its title.
type Options struct {
	// Metrics receives the evop_wps_* instruments; nil keeps them private.
	Metrics *metrics.Registry
	// Pool runs asynchronous executions as bulk-class tasks on the shared
	// compute pool; required. Its async bound is the service's: when the
	// pool answers ErrSaturated the client gets a ServerBusy exception.
	Pool *sched.Pool
}

// Service is the WPS endpoint; it implements http.Handler.
type Service struct {
	title string
	pool  *sched.Pool

	// execCtx scopes asynchronous executions to the service's lifetime:
	// Close cancels it, and ctx-observing processes stop promptly.
	execCtx    context.Context
	execCancel context.CancelFunc

	mu        sync.RWMutex
	processes map[string]Process
	order     []string
	execSeq   int
	execs     map[string]*execution
	// terminal rings the IDs of the newest terminal executions, oldest
	// at terminalHead once it holds retainedExecutions.
	terminal     []string
	terminalHead int
	wg           sync.WaitGroup

	// executions counts Execute requests accepted per delivery mode.
	syncExecs  *metrics.Counter
	asyncExecs *metrics.Counter
	// rejected counts async Execute requests shed by pool saturation.
	rejected *metrics.Counter
	// queueDepth counts async executions accepted but not yet terminal.
	queueDepth *metrics.Gauge
}

var _ http.Handler = (*Service)(nil)

// NewService returns an empty WPS service with the given title,
// configured by opts. A nil opts.Pool is an error.
func NewService(title string, opts Options) (*Service, error) {
	if opts.Pool == nil {
		return nil, errors.New("wps: nil compute pool")
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := opts.Metrics
	return &Service{
		title:      title,
		pool:       opts.Pool,
		execCtx:    ctx,
		execCancel: cancel,
		processes:  make(map[string]Process),
		execs:      make(map[string]*execution),
		syncExecs: reg.Counter("evop_wps_executions_total",
			"WPS Execute operations accepted.", metrics.L("mode", "sync")),
		asyncExecs: reg.Counter("evop_wps_executions_total",
			"WPS Execute operations accepted.", metrics.L("mode", "async")),
		rejected: reg.Counter("evop_wps_rejected_total",
			"Asynchronous WPS executions rejected at the concurrency bound."),
		queueDepth: reg.Gauge("evop_wps_queue_depth",
			"Asynchronous WPS executions accepted but not yet terminal."),
	}, nil
}

// Register adds a process. Registering a duplicate identifier is an
// error.
func (s *Service) Register(p Process) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := p.Identifier()
	if id == "" {
		return fmt.Errorf("empty identifier: %w", ErrBadRequest)
	}
	if _, ok := s.processes[id]; ok {
		return fmt.Errorf("duplicate process %q: %w", id, ErrBadRequest)
	}
	s.processes[id] = p
	s.order = append(s.order, id)
	return nil
}

// Processes lists registered process identifiers.
func (s *Service) Processes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// Wait blocks until all asynchronous executions have finished; used by
// tests and graceful shutdown.
func (s *Service) Wait() { s.wg.Wait() }

// Drain is Wait with a deadline: it blocks until every asynchronous
// execution has finished or ctx ends, returning ctx's error in the
// latter case. Graceful shutdown drains; a caller that cannot wait any
// longer may then Close and Wait for ctx-observing processes to unwind.
func (s *Service) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("wps: drain interrupted: %w", ctx.Err())
	}
}

// Close cancels the service's execution context: in-flight asynchronous
// executions whose processes observe their context stop promptly and
// record ProcessFailed. Executions accepted after Close fail the same
// way. Close does not wait; follow with Wait or Drain.
func (s *Service) Close() { s.execCancel() }

// ServeHTTP implements the KVP GET binding (names read by ogc.KVP) and
// the POST binding.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.servePost(w, r)
		return
	}
	q := ogc.KVP(r.URL.Query())
	if !strings.EqualFold(q.Get("service"), "WPS") {
		writeException(w, http.StatusBadRequest, "InvalidParameterValue", "service must be WPS")
		return
	}
	switch strings.ToLower(q.Get("request")) {
	case "getcapabilities":
		s.getCapabilities(w)
	case "describeprocess":
		s.describeProcess(w, q.Get("identifier"))
	case "execute":
		s.execute(w, r.Context(), q.Get("identifier"), q.Get("datainputs"),
			strings.EqualFold(q.Get("storeexecuteresponse"), "true"))
	case "getstatus":
		s.getStatus(w, q.Get("executionid"))
	default:
		writeException(w, http.StatusBadRequest, "OperationNotSupported", q.Get("request"))
	}
}

// --- XML document shapes ---

type xmlCapabilities struct {
	XMLName   xml.Name     `xml:"wps:Capabilities"`
	Service   string       `xml:"ows:ServiceIdentification>ows:Title"`
	Type      string       `xml:"ows:ServiceIdentification>ows:ServiceType"`
	Version   string       `xml:"version,attr"`
	Processes []xmlProcess `xml:"wps:ProcessOfferings>wps:Process"`
}

type xmlProcess struct {
	Identifier string `xml:"ows:Identifier"`
	Title      string `xml:"ows:Title"`
	Abstract   string `xml:"ows:Abstract,omitempty"`
}

type xmlProcessDescription struct {
	XMLName  xml.Name    `xml:"wps:ProcessDescriptions"`
	ID       string      `xml:"ProcessDescription>ows:Identifier"`
	Title    string      `xml:"ProcessDescription>ows:Title"`
	Abstract string      `xml:"ProcessDescription>ows:Abstract,omitempty"`
	Inputs   []ParamDesc `xml:"ProcessDescription>DataInputs>Input"`
	Outputs  []ParamDesc `xml:"ProcessDescription>ProcessOutputs>Output"`
}

type xmlException struct {
	XMLName   xml.Name `xml:"ows:ExceptionReport"`
	Exception struct {
		Code string `xml:"exceptionCode,attr"`
		Text string `xml:"ows:ExceptionText"`
	} `xml:"ows:Exception"`
}

func writeXML(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	w.Write([]byte(xml.Header))
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	// Encoding to a ResponseWriter: an error here means the client is
	// gone; nothing useful to do.
	_ = enc.Encode(doc)
}

func writeException(w http.ResponseWriter, status int, code, text string) {
	var doc xmlException
	doc.Exception.Code = code
	doc.Exception.Text = text
	writeXML(w, status, doc)
}

func (s *Service) getCapabilities(w http.ResponseWriter) {
	s.mu.RLock()
	doc := xmlCapabilities{Service: s.title, Type: "WPS", Version: "1.0.0"}
	for _, id := range s.order {
		p := s.processes[id]
		doc.Processes = append(doc.Processes, xmlProcess{
			Identifier: p.Identifier(), Title: p.Title(), Abstract: p.Abstract(),
		})
	}
	s.mu.RUnlock()
	writeXML(w, http.StatusOK, doc)
}

func (s *Service) describeProcess(w http.ResponseWriter, id string) {
	s.mu.RLock()
	p, ok := s.processes[id]
	s.mu.RUnlock()
	if !ok {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", "no process "+id)
		return
	}
	writeXML(w, http.StatusOK, xmlProcessDescription{
		ID: p.Identifier(), Title: p.Title(), Abstract: p.Abstract(),
		Inputs: p.Inputs(), Outputs: p.Outputs(),
	})
}

// ParseDataInputs parses the WPS KVP datainputs encoding
// ("k1=v1;k2=v2") into literal values. Values may contain '=' after the
// first.
func ParseDataInputs(raw string) (map[string]Value, error) {
	out := make(map[string]Value)
	if raw == "" {
		return out, nil
	}
	for _, pair := range strings.Split(raw, ";") {
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("datainputs pair %q: %w", pair, ErrBadRequest)
		}
		out[k] = Literal(v)
	}
	return out, nil
}

func (s *Service) execute(w http.ResponseWriter, ctx context.Context, id, rawInputs string, async bool) {
	inputs, err := ParseDataInputs(rawInputs)
	if err != nil {
		writeException(w, http.StatusBadRequest, "InvalidParameterValue", err.Error())
		return
	}
	s.executeParsed(w, ctx, id, inputs, async)
}

func (s *Service) executeParsed(w http.ResponseWriter, ctx context.Context, id string, inputs map[string]Value, async bool) {
	s.mu.RLock()
	p, ok := s.processes[id]
	s.mu.RUnlock()
	if !ok {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", "no process "+id)
		return
	}

	if !async {
		// Synchronous: the execution lives and dies with the HTTP request.
		s.syncExecs.Inc()
		outputs, err := p.Execute(ctx, inputs)
		if err != nil {
			executeResponse{process: id, status: StatusFailed.String(), message: err.Error()}.write(w)
			return
		}
		executeResponse{process: id, status: StatusSucceeded.String(), outputs: outputs}.write(w)
		return
	}

	// The execution is registered before its task can run, so it is in
	// the table when the task records it terminal.
	s.mu.Lock()
	s.execSeq++
	ex := &execution{
		id:      "e" + strconv.Itoa(s.execSeq),
		process: id,
		status:  StatusAccepted,
	}
	s.execs[ex.id] = ex
	s.mu.Unlock()

	// Asynchronous: the execution outlives the accepting request, so it
	// runs under the service's lifecycle context, and the wg keeps it
	// drainable — Wait/Drain block until every accepted execution has
	// reached a terminal status.
	s.wg.Add(1)
	s.queueDepth.Add(1)
	run := func() {
		defer s.wg.Done()
		defer s.queueDepth.Add(-1)
		s.mu.Lock()
		ex.status = StatusRunning
		s.mu.Unlock()
		outputs, err := p.Execute(s.execCtx, inputs)
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			ex.status = StatusFailed
			ex.err = err.Error()
		} else {
			ex.status = StatusSucceeded
			ex.outputs = outputs
		}
		s.retainLocked(ex.id)
	}
	if err := s.pool.TrySubmit(sched.ClassBulk, run); err != nil {
		// The execution never ran: unregister it. The consumed sequence
		// number is not reused.
		s.mu.Lock()
		delete(s.execs, ex.id)
		s.mu.Unlock()
		s.queueDepth.Add(-1)
		s.wg.Done()
		s.rejected.Inc()
		writeException(w, http.StatusServiceUnavailable, "ServerBusy",
			"compute pool saturated; retry later: "+err.Error())
		return
	}
	s.asyncExecs.Inc()

	executeResponse{executionID: ex.id, process: id, status: StatusAccepted.String()}.write(w)
}

// retainLocked records a newly terminal execution, forgetting the
// oldest terminal one once retainedExecutions are held. The caller
// holds s.mu.
func (s *Service) retainLocked(id string) {
	if len(s.terminal) < retainedExecutions {
		s.terminal = append(s.terminal, id)
		return
	}
	delete(s.execs, s.terminal[s.terminalHead])
	s.terminal[s.terminalHead] = id
	s.terminalHead = (s.terminalHead + 1) % retainedExecutions
}

func (s *Service) getStatus(w http.ResponseWriter, execID string) {
	s.mu.RLock()
	ex, ok := s.execs[execID]
	var doc executeResponse
	if ok {
		// A terminal execution's outputs are never written again, so the
		// document may read them after the lock is released.
		doc = executeResponse{
			executionID: ex.id, process: ex.process,
			status: ex.status.String(), message: ex.err, outputs: ex.outputs,
		}
	}
	s.mu.RUnlock()
	if !ok {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", "no execution "+execID)
		return
	}
	doc.write(w)
}
