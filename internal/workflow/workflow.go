// Package workflow implements the composition feature the paper leaves as
// future work (Section VIII): "a conglomerate scientific process composed
// of a directed acyclic graph of basic execution units ... Workflows allow
// 'advanced' users to create complex experiments that can be easily
// tweaked and replayed, offering reproducibility and traceability."
//
// A Workflow[T] is a DAG of named nodes with outputs of type T.
// Validate layers it into waves; Execute runs each wave as one batch on
// the shared compute pool (sched.Map), feeding each node its
// dependencies' outputs, and records a provenance trace. Replay
// re-executes from the trace and verifies output fingerprints match —
// the reproducibility check.
package workflow

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"strconv"

	"evop/internal/ogc/wps"
	"evop/internal/sched"
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
type Runner[T any] func(ctx context.Context, inputs map[string]T) (T, error)

// Node is one step in the DAG.
type Node[T any] struct {
	// ID names the node uniquely within the workflow.
	ID string
	// Deps are node IDs whose outputs this node consumes.
	Deps []string
	// Run executes the unit.
	Run Runner[T]
}

// Workflow is a named DAG of nodes whose outputs are of type T.
type Workflow[T any] struct {
	name  string
	pool  *sched.Pool
	nodes map[string]Node[T]
	order []string // insertion order, for stable reporting
}

// New returns an empty workflow whose waves run on pool; a nil pool
// runs each wave inline on the caller.
func New[T any](name string, pool *sched.Pool) *Workflow[T] {
	return &Workflow[T]{name: name, pool: pool, nodes: make(map[string]Node[T])}
}

// Name returns the workflow name.
func (w *Workflow[T]) Name() string { return w.name }

// Add registers a node. Duplicate IDs and nil runners are errors.
func (w *Workflow[T]) Add(n Node[T]) error {
	if n.ID == "" {
		return fmt.Errorf("empty node ID: %w", ErrBadGraph)
	}
	if n.Run == nil {
		return fmt.Errorf("node %s has no runner: %w", n.ID, ErrBadGraph)
	}
	if _, ok := w.nodes[n.ID]; ok {
		return fmt.Errorf("duplicate node %s: %w", n.ID, ErrBadGraph)
	}
	n.Deps = slices.Clone(n.Deps)
	w.nodes[n.ID] = n
	w.order = append(w.order, n.ID)
	return nil
}

// Validate checks that all dependencies exist and the graph is acyclic,
// returning its waves: a layered Kahn pass puts each node one layer
// below the deepest of its dependencies, and each wave is sorted by ID.
func (w *Workflow[T]) Validate() ([][]string, error) {
	if len(w.nodes) == 0 {
		return nil, fmt.Errorf("empty workflow: %w", ErrBadGraph)
	}
	indeg := make(map[string]int, len(w.nodes))
	dependents := make(map[string][]string, len(w.nodes))
	var wave []string
	for _, id := range w.order {
		n := w.nodes[id]
		indeg[id] = len(n.Deps)
		if len(n.Deps) == 0 {
			wave = append(wave, id)
		}
		for _, d := range n.Deps {
			if _, ok := w.nodes[d]; !ok {
				return nil, fmt.Errorf("node %s depends on missing %s: %w", id, d, ErrBadGraph)
			}
			dependents[d] = append(dependents[d], id)
		}
	}
	var waves [][]string
	placed := 0
	for len(wave) > 0 {
		sort.Strings(wave)
		waves = append(waves, wave)
		placed += len(wave)
		var next []string
		for _, id := range wave {
			for _, dep := range dependents[id] {
				indeg[dep]--
				if indeg[dep] == 0 {
					next = append(next, dep)
				}
			}
		}
		wave = next
	}
	if placed != len(w.nodes) {
		return nil, fmt.Errorf("cycle detected: %w", ErrBadGraph)
	}
	return waves, nil
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
type Result[T any] struct {
	// Outputs maps node ID to its output value.
	Outputs map[string]T
	// Trace is the provenance record, by wave then node ID.
	Trace []TraceEntry
	// Waves is the number of parallel waves executed (the DAG's depth).
	Waves int
}

// Execute runs the workflow one wave at a time, each wave's nodes as
// one bulk-class batch on the pool: at most the pool's workers and the
// calling goroutine run nodes at once. A node error cancels the wave's
// nodes that have not started, and the lowest-index failure seen is
// returned.
func (w *Workflow[T]) Execute(ctx context.Context) (*Result[T], error) {
	waves, err := w.Validate()
	if err != nil {
		return nil, err
	}
	res := &Result[T]{Outputs: make(map[string]T, len(w.nodes)), Waves: len(waves)}
	for wi, wave := range waves {
		// Outputs change only between waves, so the tasks read them
		// without a lock.
		outs := make([]T, len(wave))
		trace, err := sched.Map(ctx, w.pool, sched.ClassBulk, len(wave), func(i int) (TraceEntry, error) {
			n := w.nodes[wave[i]]
			inputs := make(map[string]T, len(n.Deps))
			for _, d := range n.Deps {
				inputs[d] = res.Outputs[d]
			}
			out, err := n.Run(ctx, inputs)
			if err != nil {
				return TraceEntry{}, fmt.Errorf("node %s: %v: %w", n.ID, err, ErrNodeFailed)
			}
			outs[i] = out
			deps := append([]string{}, n.Deps...) // [] in the JSON trace, not null
			sort.Strings(deps)
			return TraceEntry{Node: n.ID, Wave: wi, Inputs: deps, Fingerprint: Fingerprint(out)}, nil
		})
		switch {
		case errors.Is(err, ErrNodeFailed):
			return nil, err
		case err != nil:
			// Map checks ctx before the wave starts and after it ends.
			return nil, fmt.Errorf("workflow %s cancelled: %w", w.name, err)
		}
		for i, id := range wave {
			res.Outputs[id] = outs[i]
		}
		res.Trace = append(res.Trace, trace...)
	}
	return res, nil
}

// Replay re-executes the workflow and verifies every node reproduces the
// fingerprint recorded in the reference trace. It returns the new result
// on success and ErrNotReproducible on any divergence.
func (w *Workflow[T]) Replay(ctx context.Context, reference *Result[T]) (*Result[T], error) {
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
