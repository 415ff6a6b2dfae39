// Package a plants one instance of most rules; a "want" comment names the
// finding expected on its line.
package a

import (
	"container/heap"
	"context"
	"sync/atomic"
)

// T has one method nobody calls and one fmt.Stringer method.
type T struct{}

func (T) Unused() {} // want uncalled T.Unused

// String satisfies fmt.Stringer, so it counts as used.
func (T) String() string { return "t" }

// Kept is uncalled but allowed.
func Kept() {}

func orphan() {} // want uncalled orphan

// Run is the twin of RunContext.
func Run() { RunContext(context.Background()) } // want twin Run

// RunContext runs.
func RunContext(ctx context.Context) { _ = ctx }

// RunConfig has one knob set elsewhere and one set only here.
type RunConfig struct {
	Depth int
	Width int // want knob RunConfig.Width
}

// Defaults fills the config in its own file, which does not count.
func Defaults() RunConfig { return RunConfig{Width: 2} }

var hits atomic.Uint64 // want atomic hits

// Count reads the raw counter.
func Count() uint64 { return hits.Load() }

// Thing keeps a second read path.
type Thing struct{}

// Stats reads it.
func (Thing) Stats() int { return 0 } // want stats Thing.Stats

// h is a heap.Interface: container/heap calls Len, Less and Swap.
type h []int

func (x h) Len() int           { return len(x) }
func (x h) Less(i, j int) bool { return x[i] < x[j] }
func (x h) Swap(i, j int)      { x[i], x[j] = x[j], x[i] }
func (x *h) Push(v any)        { *x = append(*x, v.(int)) }
func (x *h) Pop() any {
	old := *x
	v := old[len(old)-1]
	*x = old[:len(old)-1]
	return v
}

// Sort heapifies in the background.
func Sort(xs []int) {
	go heap.Init((*h)(&xs)) // want go Sort
}

// Perf only the nested benchmark module calls.
func Perf() {}

// PoolMetrics is a hand-built snapshot.
type PoolMetrics struct{ Runs int } // want metrics PoolMetrics

// NewScratch sizes caller-owned scratch.
var NewScratch = 64 // want scratch NewScratch
