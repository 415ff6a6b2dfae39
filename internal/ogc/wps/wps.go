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
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"evop/internal/metrics"
	"evop/internal/sched"
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
// outputs are literal key/value maps, as the EVOp widgets exchange small
// parameter sets and JSON-encoded series.
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
	Execute(ctx context.Context, inputs map[string]string) (map[string]string, error)
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

// execution tracks one async run.
type execution struct {
	id      string
	process string
	status  Status
	outputs map[string]string
	err     string
}

// DefaultMaxAsync bounds in-flight asynchronous executions when Options
// leaves MaxAsync at zero. Before this bound existed every accepted
// async Execute spawned an unbounded goroutine — a handful of misbehaving
// widgets could pile up arbitrary concurrent model runs behind the
// admission controller's back.
const DefaultMaxAsync = 64

// Options configures a WPS service beyond its title.
type Options struct {
	// Metrics receives the evop_wps_* instruments; nil keeps them private.
	Metrics *metrics.Registry
	// Pool, when non-nil, runs asynchronous executions as bulk-class
	// tasks on the shared compute pool instead of dedicated goroutines.
	// A pool-level ErrSaturated surfaces to the client as ServerBusy,
	// exactly like the MaxAsync bound.
	Pool *sched.Pool
	// MaxAsync bounds asynchronous executions that are accepted but not
	// yet terminal; further async Execute requests are rejected with a
	// ServerBusy exception. 0 means DefaultMaxAsync; negative means
	// unbounded.
	MaxAsync int
}

// Service is the WPS endpoint; it implements http.Handler.
type Service struct {
	title    string
	pool     *sched.Pool
	maxAsync int

	// execCtx scopes asynchronous executions to the service's lifetime:
	// Close cancels it, and ctx-observing processes stop promptly.
	execCtx    context.Context
	execCancel context.CancelFunc

	mu        sync.RWMutex
	processes map[string]Process
	order     []string
	execSeq   int
	execs     map[string]*execution
	active    int // async executions accepted but not yet terminal
	wg        sync.WaitGroup

	// executions counts Execute requests accepted per delivery mode.
	syncExecs  *metrics.Counter
	asyncExecs *metrics.Counter
	// rejected counts async Execute requests shed at the MaxAsync bound
	// or by pool saturation.
	rejected *metrics.Counter
	// queueDepth mirrors active for scrapes.
	queueDepth *metrics.Gauge
}

var _ http.Handler = (*Service)(nil)

// NewService returns an empty WPS service with the given title,
// configured by opts; the zero Options gives the defaults with private
// instruments.
func NewService(title string, opts Options) *Service {
	ctx, cancel := context.WithCancel(context.Background())
	maxAsync := opts.MaxAsync
	if maxAsync == 0 {
		maxAsync = DefaultMaxAsync
	}
	reg := opts.Metrics
	return &Service{
		title:      title,
		pool:       opts.Pool,
		maxAsync:   maxAsync,
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
	}
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

// ActiveExecutions counts asynchronous executions not yet in a terminal
// status. After a successful Drain it is zero.
func (s *Service) ActiveExecutions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, ex := range s.execs {
		if ex.status == StatusAccepted || ex.status == StatusRunning {
			n++
		}
	}
	return n
}

// ServeHTTP implements the KVP GET binding. Parameter names are
// case-insensitive, per OGC KVP conventions.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.servePost(w, r)
		return
	}
	q := make(map[string][]string, len(r.URL.Query()))
	for k, v := range r.URL.Query() {
		q[strings.ToLower(k)] = v
	}
	if !strings.EqualFold(getKVP(q, "service"), "WPS") {
		writeException(w, http.StatusBadRequest, "InvalidParameterValue", "service must be WPS")
		return
	}
	switch strings.ToLower(getKVP(q, "request")) {
	case "getcapabilities":
		s.getCapabilities(w)
	case "describeprocess":
		s.describeProcess(w, getKVP(q, "identifier"))
	case "execute":
		s.execute(w, r.Context(), getKVP(q, "identifier"), getKVP(q, "datainputs"),
			strings.EqualFold(getKVP(q, "storeexecuteresponse"), "true"))
	case "getstatus":
		s.getStatus(w, getKVP(q, "executionid"))
	default:
		writeException(w, http.StatusBadRequest, "OperationNotSupported", getKVP(q, "request"))
	}
}

// getKVP returns the first value of a lower-cased KVP key.
func getKVP(q map[string][]string, key string) string {
	if vs := q[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
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

type xmlExecuteResponse struct {
	XMLName     xml.Name    `xml:"wps:ExecuteResponse"`
	ExecutionID string      `xml:"executionId,attr,omitempty"`
	Process     string      `xml:"wps:Process>ows:Identifier"`
	Status      string      `xml:"wps:Status>wps:Value"`
	Message     string      `xml:"wps:Status>wps:Message,omitempty"`
	Outputs     []xmlOutput `xml:"wps:ProcessOutputs>wps:Output,omitempty"`
}

type xmlOutput struct {
	Identifier string `xml:"ows:Identifier"`
	Data       string `xml:"wps:Data>wps:LiteralData"`
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
// ("k1=v1;k2=v2"). Values may contain '=' after the first.
func ParseDataInputs(raw string) (map[string]string, error) {
	out := make(map[string]string)
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
		out[k] = v
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

func (s *Service) executeParsed(w http.ResponseWriter, ctx context.Context, id string, inputs map[string]string, async bool) {
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
			writeXML(w, http.StatusOK, xmlExecuteResponse{
				Process: id, Status: StatusFailed.String(), Message: err.Error(),
			})
			return
		}
		writeXML(w, http.StatusOK, xmlExecuteResponse{
			Process: id, Status: StatusSucceeded.String(), Outputs: sortedOutputs(outputs),
		})
		return
	}

	s.mu.Lock()
	if s.maxAsync >= 0 && s.active >= s.maxAsync {
		n := s.active
		s.mu.Unlock()
		s.rejected.Inc()
		writeException(w, http.StatusServiceUnavailable, "ServerBusy",
			fmt.Sprintf("%d asynchronous executions in flight (max %d); retry later", n, s.maxAsync))
		return
	}
	s.execSeq++
	ex := &execution{
		id:      "e" + strconv.Itoa(s.execSeq),
		process: id,
		status:  StatusAccepted,
	}
	s.execs[ex.id] = ex
	s.active++
	s.mu.Unlock()
	s.queueDepth.Add(1)

	// Asynchronous: the execution outlives the accepting request, so it
	// runs under the service's lifecycle context, and the wg keeps it
	// drainable — Wait/Drain block until every accepted execution has
	// reached a terminal status.
	s.wg.Add(1)
	run := func() {
		defer s.wg.Done()
		defer s.queueDepth.Add(-1)
		s.mu.Lock()
		ex.status = StatusRunning
		s.mu.Unlock()
		outputs, err := p.Execute(s.execCtx, inputs)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.active--
		if err != nil {
			ex.status = StatusFailed
			ex.err = err.Error()
			return
		}
		ex.status = StatusSucceeded
		ex.outputs = outputs
	}
	if s.pool != nil {
		if err := s.pool.TrySubmit(sched.ClassBulk, run); err != nil {
			// Undo the registration: the execution never ran. The
			// consumed sequence number is not reused — a concurrent
			// accept may already hold a later one.
			s.mu.Lock()
			delete(s.execs, ex.id)
			s.active--
			s.mu.Unlock()
			s.queueDepth.Add(-1)
			s.wg.Done()
			s.rejected.Inc()
			writeException(w, http.StatusServiceUnavailable, "ServerBusy",
				"compute pool saturated; retry later: "+err.Error())
			return
		}
	} else {
		go run()
	}
	s.asyncExecs.Inc()

	writeXML(w, http.StatusOK, xmlExecuteResponse{
		ExecutionID: ex.id, Process: id, Status: StatusAccepted.String(),
	})
}

func (s *Service) getStatus(w http.ResponseWriter, execID string) {
	s.mu.RLock()
	ex, ok := s.execs[execID]
	var doc xmlExecuteResponse
	if ok {
		doc = xmlExecuteResponse{
			ExecutionID: ex.id, Process: ex.process,
			Status: ex.status.String(), Message: ex.err,
			Outputs: sortedOutputs(ex.outputs),
		}
	}
	s.mu.RUnlock()
	if !ok {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", "no execution "+execID)
		return
	}
	writeXML(w, http.StatusOK, doc)
}

func sortedOutputs(outputs map[string]string) []xmlOutput {
	keys := make([]string, 0, len(outputs))
	for k := range outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]xmlOutput, 0, len(keys))
	for _, k := range keys {
		out = append(out, xmlOutput{Identifier: k, Data: outputs[k]})
	}
	return out
}
