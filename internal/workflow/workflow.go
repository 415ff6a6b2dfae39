// Package workflow implements the composition feature the paper leaves as
// future work (Section VIII): "a conglomerate scientific process composed
// of a directed acyclic graph of basic execution units ... Workflows allow
// 'advanced' users to create complex experiments that can be easily
// tweaked and replayed, offering reproducibility and traceability."
//
// A Workflow is a DAG of named nodes; Execute runs nodes in parallel
// topological order, feeding each node its dependencies' outputs, and
// records a provenance trace. Replay re-executes from the trace and
// verifies output fingerprints match — the reproducibility check.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"sync"

	"evop/internal/ogc/wps"
)

// Common errors.
var (
	// ErrBadGraph indicates a structurally invalid workflow (duplicate or
	// missing nodes, cycles).
	ErrBadGraph = errors.New("workflow: invalid graph")
	// ErrNodeFailed indicates a node's execution returned an error.
	ErrNodeFailed = errors.New("workflow: node failed")
	// ErrNotReproducible indicates a replay produced different outputs.
	ErrNotReproducible = errors.New("workflow: replay mismatch")
)

// Runner is one basic execution unit. It receives the outputs of its
// dependencies keyed by node ID.
type Runner func(ctx context.Context, inputs map[string]any) (any, error)

// Node is one step in the DAG.
type Node struct {
	// ID names the node uniquely within the workflow.
	ID string
	// Deps are node IDs whose outputs this node consumes.
	Deps []string
	// Run executes the unit.
	Run Runner
}

// Workflow is a named DAG of nodes.
type Workflow struct {
	name  string
	nodes map[string]Node
	order []string // insertion order, for stable reporting
}

// New returns an empty workflow.
func New(name string) *Workflow {
	return &Workflow{name: name, nodes: make(map[string]Node)}
}

// Name returns the workflow name.
func (w *Workflow) Name() string { return w.name }

// Add registers a node. Duplicate IDs and nil runners are errors.
func (w *Workflow) Add(n Node) error {
	if n.ID == "" {
		return fmt.Errorf("empty node ID: %w", ErrBadGraph)
	}
	if n.Run == nil {
		return fmt.Errorf("node %s has no runner: %w", n.ID, ErrBadGraph)
	}
	if _, ok := w.nodes[n.ID]; ok {
		return fmt.Errorf("duplicate node %s: %w", n.ID, ErrBadGraph)
	}
	deps := make([]string, len(n.Deps))
	copy(deps, n.Deps)
	n.Deps = deps
	w.nodes[n.ID] = n
	w.order = append(w.order, n.ID)
	return nil
}

// Validate checks that all dependencies exist and the graph is acyclic,
// returning a topological order.
func (w *Workflow) Validate() ([]string, error) {
	if len(w.nodes) == 0 {
		return nil, fmt.Errorf("empty workflow: %w", ErrBadGraph)
	}
	indeg := make(map[string]int, len(w.nodes))
	dependents := make(map[string][]string, len(w.nodes))
	for _, id := range w.order {
		n := w.nodes[id]
		indeg[id] = len(n.Deps)
		for _, d := range n.Deps {
			if _, ok := w.nodes[d]; !ok {
				return nil, fmt.Errorf("node %s depends on missing %s: %w", id, d, ErrBadGraph)
			}
			dependents[d] = append(dependents[d], id)
		}
	}
	// Kahn's algorithm with deterministic tie-breaking.
	var ready []string
	for _, id := range w.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var topo []string
	for len(ready) > 0 {
		sort.Strings(ready)
		id := ready[0]
		ready = ready[1:]
		topo = append(topo, id)
		for _, dep := range dependents[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(topo) != len(w.nodes) {
		return nil, fmt.Errorf("cycle detected: %w", ErrBadGraph)
	}
	return topo, nil
}

// TraceEntry is one node's provenance record.
type TraceEntry struct {
	// Node is the node ID.
	Node string `json:"node"`
	// Wave is the parallel execution wave the node ran in (0-based).
	Wave int `json:"wave"`
	// Inputs lists the dependency IDs in sorted order.
	Inputs []string `json:"inputs"`
	// Fingerprint is a stable hash of the node's output.
	Fingerprint string `json:"fingerprint"`
}

// Result is a completed execution with provenance.
type Result struct {
	// Outputs maps node ID to its output value.
	Outputs map[string]any
	// Trace is the provenance record in topological order.
	Trace []TraceEntry
	// Waves is the number of parallel waves executed (the DAG's depth).
	Waves int
}

// Execute runs the workflow: each "wave" of nodes whose dependencies are
// satisfied runs concurrently. The first node error cancels the run.
func (w *Workflow) Execute(ctx context.Context) (*Result, error) {
	topo, err := w.Validate()
	if err != nil {
		return nil, err
	}
	// Group the topological order into waves by dependency depth.
	depth := make(map[string]int, len(topo))
	maxDepth := 0
	for _, id := range topo {
		d := 0
		for _, dep := range w.nodes[id].Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[id] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	waves := make([][]string, maxDepth+1)
	for _, id := range topo {
		waves[depth[id]] = append(waves[depth[id]], id)
	}

	res := &Result{Outputs: make(map[string]any, len(topo)), Waves: len(waves)}
	var mu sync.Mutex
	for wi, wave := range waves {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("workflow %s cancelled: %w", w.name, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(wave))
		for i, id := range wave {
			wg.Add(1)
			go func(i int, id string) {
				defer wg.Done()
				n := w.nodes[id]
				inputs := make(map[string]any, len(n.Deps))
				mu.Lock()
				for _, d := range n.Deps {
					inputs[d] = res.Outputs[d]
				}
				mu.Unlock()
				out, err := n.Run(ctx, inputs)
				if err != nil {
					errs[i] = fmt.Errorf("node %s: %v: %w", id, err, ErrNodeFailed)
					return
				}
				deps := make([]string, len(n.Deps))
				copy(deps, n.Deps)
				sort.Strings(deps)
				mu.Lock()
				res.Outputs[id] = out
				res.Trace = append(res.Trace, TraceEntry{
					Node: id, Wave: wi, Inputs: deps, Fingerprint: Fingerprint(out),
				})
				mu.Unlock()
			}(i, id)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	// Stable trace ordering: by wave then node ID.
	sort.Slice(res.Trace, func(i, j int) bool {
		if res.Trace[i].Wave != res.Trace[j].Wave {
			return res.Trace[i].Wave < res.Trace[j].Wave
		}
		return res.Trace[i].Node < res.Trace[j].Node
	})
	return res, nil
}

// Replay re-executes the workflow and verifies every node reproduces the
// fingerprint recorded in the reference trace. It returns the new result
// on success and ErrNotReproducible on any divergence.
func (w *Workflow) Replay(ctx context.Context, reference *Result) (*Result, error) {
	if reference == nil {
		return nil, fmt.Errorf("nil reference: %w", ErrBadGraph)
	}
	res, err := w.Execute(ctx)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]string, len(reference.Trace))
	for _, e := range reference.Trace {
		ref[e.Node] = e.Fingerprint
	}
	for _, e := range res.Trace {
		want, ok := ref[e.Node]
		if !ok {
			return nil, fmt.Errorf("node %s absent from reference: %w", e.Node, ErrNotReproducible)
		}
		if e.Fingerprint != want {
			return nil, fmt.Errorf("node %s fingerprint %s != reference %s: %w",
				e.Node, e.Fingerprint, want, ErrNotReproducible)
		}
	}
	return res, nil
}

// Fingerprint returns a stable hash of a node output: FNV-1a over its
// Go-syntax form (%#v). A process's outputs hash as the map[string]string
// of their text would, a series by its Flot bytes streamed into the
// hash, so traces recorded when outputs were text still replay.
func Fingerprint(v any) string {
	h := fnv.New64a()
	if outs, ok := v.(map[string]wps.Value); ok {
		writeOutputs(h, outs)
	} else {
		fmt.Fprintf(h, "%#v", v)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// writeOutputs writes outs to w as %#v writes a map[string]string of
// their text: keys sorted, each key and value quoted.
func writeOutputs(w io.Writer, outs map[string]wps.Value) {
	if outs == nil {
		io.WriteString(w, "map[string]string(nil)")
		return
	}
	keys := make([]string, 0, len(outs))
	for k := range outs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte("map[string]string{")
	for i, k := range keys {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(strconv.AppendQuote(b, k), ':')
		s := outs[k].Series()
		if s == nil {
			b = strconv.AppendQuote(b, outs[k].String())
			continue
		}
		// Flot text is printable ASCII without quotes or backslashes, so
		// it quotes as itself.
		w.Write(append(b, '"'))
		s.WriteFlot(w)
		b = append(b[:0], '"')
	}
	w.Write(append(b, '}'))
}
