package workflow

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"evop/internal/ogc/wps"
	"evop/internal/rest"
	"evop/internal/sched"
)

// This file exposes workflow composition over HTTP, completing the
// paper's future-work storyboard: "supporting workflow composition ...
// Workflows allow 'advanced' users (i.e. domain specialists from the
// scientific or governmental communities) to create complex experiments
// that can be easily tweaked and replayed."
//
// A workflow definition is JSON: named nodes, each invoking a registered
// process (a wps.Process) with literal inputs plus references to
// upstream outputs written as "${node.output}". A referenced output
// passes by reference: a series one node returns reaches the next as
// the same *timeseries.Series, and becomes Flot text only in the run's
// JSON.

// ErrBadDefinition indicates an invalid workflow definition document.
var ErrBadDefinition = errors.New("workflow: invalid definition")

// NodeDef is one node of a workflow definition document.
type NodeDef struct {
	// ID names the node.
	ID string `json:"id"`
	// Process is the registered process to invoke.
	Process string `json:"process"`
	// Inputs are literal values or "${node.output}" references to
	// upstream results; referenced nodes become dependencies
	// automatically.
	Inputs map[string]string `json:"inputs,omitempty"`
	// After adds explicit ordering dependencies beyond data references.
	After []string `json:"after,omitempty"`
}

// Definition is a workflow definition document.
type Definition struct {
	// Name labels the workflow.
	Name string `json:"name"`
	// Nodes are the steps.
	Nodes []NodeDef `json:"nodes"`
}

// Service executes workflow definitions against a registry of processes
// and records runs for replay; it implements http.Handler:
//
//	POST /workflows                 submit a Definition; runs synchronously
//	GET  /workflows                 list run summaries
//	GET  /workflows/<id>            fetch a run (outputs + trace)
//	POST /workflows/<id>/replay     re-execute and verify reproducibility
type Service struct {
	pool      *sched.Pool
	mu        sync.Mutex
	processes map[string]wps.Process
	seq       int
	runs      map[string]*Run
	order     []string // IDs of the retained runs, oldest first
}

// retainedRuns is how many runs stay stored. A new run beyond it
// forgets the oldest, releasing the output series it pins; a forgotten
// run is unknown to GET and replay.
const retainedRuns = 1024

var _ http.Handler = (*Service)(nil)

// Run is a stored workflow execution.
type Run struct {
	// ID is the run identifier ("wf1").
	ID string `json:"id"`
	// Definition is the submitted document.
	Definition Definition `json:"definition"`
	// Outputs maps node ID to its output map; a series output encodes
	// as a JSON string of its Flot text.
	Outputs map[string]map[string]wps.Value `json:"outputs"`
	// Trace is the provenance record.
	Trace []TraceEntry `json:"trace"`
	// Waves is the DAG depth.
	Waves int `json:"waves"`
	// Replays counts successful reproducibility checks.
	Replays int `json:"replays"`
}

// NewService returns an empty workflow service whose workflow waves run
// on pool; a nil pool runs them inline.
func NewService(pool *sched.Pool) *Service {
	return &Service{
		pool:      pool,
		processes: make(map[string]wps.Process),
		runs:      make(map[string]*Run),
	}
}

// RegisterProcess makes a process invocable from workflow nodes under
// its identifier. A node runs it under the executing workflow's context,
// which carries cancellation from the submitting HTTP request down into
// the computation.
func (s *Service) RegisterProcess(p wps.Process) error {
	if p == nil || p.Identifier() == "" {
		return fmt.Errorf("empty process registration: %w", ErrBadDefinition)
	}
	name := p.Identifier()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.processes[name]; ok {
		return fmt.Errorf("duplicate process %q: %w", name, ErrBadDefinition)
	}
	s.processes[name] = p
	return nil
}

// refPattern matches ${node.output} references.
func parseRef(v string) (node, output string, ok bool) {
	if !strings.HasPrefix(v, "${") || !strings.HasSuffix(v, "}") {
		return "", "", false
	}
	inner := v[2 : len(v)-1]
	node, output, found := strings.Cut(inner, ".")
	if !found || node == "" || output == "" {
		return "", "", false
	}
	return node, output, true
}

// build translates a Definition into an executable Workflow.
func (s *Service) build(def Definition) (*Workflow[map[string]wps.Value], error) {
	if def.Name == "" {
		return nil, fmt.Errorf("workflow needs a name: %w", ErrBadDefinition)
	}
	if len(def.Nodes) == 0 {
		return nil, fmt.Errorf("workflow %q has no nodes: %w", def.Name, ErrBadDefinition)
	}
	w := New[map[string]wps.Value](def.Name, s.pool)
	for _, nd := range def.Nodes {
		s.mu.Lock()
		proc, ok := s.processes[nd.Process]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("node %s: unknown process %q: %w", nd.ID, nd.Process, ErrBadDefinition)
		}
		deps := map[string]bool{}
		for _, a := range nd.After {
			deps[a] = true
		}
		for _, v := range nd.Inputs {
			if refNode, _, ok := parseRef(v); ok {
				deps[refNode] = true
			}
		}
		depList := make([]string, 0, len(deps))
		for d := range deps {
			depList = append(depList, d)
		}
		node := Node[map[string]wps.Value]{
			ID:   nd.ID,
			Deps: depList,
			Run: func(ctx context.Context, upstream map[string]map[string]wps.Value) (map[string]wps.Value, error) {
				inputs := make(map[string]wps.Value, len(nd.Inputs))
				for k, v := range nd.Inputs {
					refNode, refOut, ok := parseRef(v)
					if !ok {
						inputs[k] = wps.Literal(v)
						continue
					}
					val, ok := upstream[refNode][refOut]
					if !ok {
						return nil, fmt.Errorf("reference %s: no output %q", v, refOut)
					}
					inputs[k] = val
				}
				return proc.Execute(ctx, inputs)
			},
		}
		if err := w.Add(node); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Execute runs a definition and stores the result.
func (s *Service) Execute(ctx context.Context, def Definition) (*Run, error) {
	w, err := s.build(def)
	if err != nil {
		return nil, err
	}
	res, err := w.Execute(ctx)
	if err != nil {
		return nil, err
	}
	run := &Run{Definition: def, Outputs: res.Outputs, Trace: res.Trace, Waves: res.Waves}
	s.mu.Lock()
	s.seq++
	run.ID = "wf" + strconv.Itoa(s.seq)
	if len(s.order) == retainedRuns {
		delete(s.runs, s.order[0])
		s.order = s.order[1:]
	}
	s.runs[run.ID] = run
	s.order = append(s.order, run.ID)
	s.mu.Unlock()
	return run, nil
}

// Replay re-executes a stored run and verifies fingerprints match.
func (s *Service) Replay(ctx context.Context, runID string) (*Run, error) {
	s.mu.Lock()
	run, ok := s.runs[runID]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("run %q: %w", runID, ErrBadDefinition)
	}
	w, err := s.build(run.Definition)
	if err != nil {
		return nil, err
	}
	if _, err := w.Replay(ctx, &Result[map[string]wps.Value]{Trace: run.Trace}); err != nil {
		return nil, err
	}
	s.mu.Lock()
	run.Replays++
	s.mu.Unlock()
	return run, nil
}

// Runs lists the retained runs in execution order.
func (s *Service) Runs() []*Run {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Run, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id])
	}
	return out
}

// maxDefinitionBytes bounds a POSTed workflow definition: node graphs
// are hand-authored JSON, far below a megabyte.
const maxDefinitionBytes = 1 << 20

// ServeHTTP implements the HTTP binding. HEAD reads as GET does, and a
// method a path does not take answers 405 with that path's Allow list.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/workflows")
	path = strings.Trim(path, "/")
	read := r.Method == http.MethodGet || r.Method == http.MethodHead
	switch {
	case path == "" && r.Method == http.MethodPost:
		var def Definition
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxDefinitionBytes)).Decode(&def); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				rest.WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("definition exceeds %d bytes", tooBig.Limit))
				return
			}
			rest.WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
			return
		}
		run, err := s.Execute(r.Context(), def)
		if err != nil {
			rest.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		rest.WriteJSON(w, http.StatusOK, run)
	case path == "" && read:
		type summary struct {
			ID      string `json:"id"`
			Name    string `json:"name"`
			Nodes   int    `json:"nodes"`
			Waves   int    `json:"waves"`
			Replays int    `json:"replays"`
		}
		var out []summary
		for _, run := range s.Runs() {
			out = append(out, summary{
				ID: run.ID, Name: run.Definition.Name,
				Nodes: len(run.Definition.Nodes), Waves: run.Waves, Replays: run.Replays,
			})
		}
		rest.WriteJSON(w, http.StatusOK, out)
	case strings.HasSuffix(path, "/replay") && r.Method == http.MethodPost:
		id := strings.TrimSuffix(path, "/replay")
		run, err := s.Replay(r.Context(), id)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, ErrNotReproducible) {
				status = http.StatusConflict
			}
			rest.WriteError(w, status, err.Error())
			return
		}
		rest.WriteJSON(w, http.StatusOK, run)
	case read && !strings.HasSuffix(path, "/replay"):
		s.mu.Lock()
		run, ok := s.runs[path]
		s.mu.Unlock()
		if !ok {
			rest.WriteError(w, http.StatusNotFound, "no run "+path)
			return
		}
		rest.WriteJSON(w, http.StatusOK, run)
	default:
		allow := "GET, HEAD"
		if path == "" {
			allow = "GET, HEAD, POST"
		} else if strings.HasSuffix(path, "/replay") {
			allow = "POST"
		}
		w.Header().Set("Allow", allow)
		rest.WriteError(w, http.StatusMethodNotAllowed, r.Method+" not supported")
	}
}
