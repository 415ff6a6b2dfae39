package timeseries

import (
	"sort"
	"time"
)

// Observation is a single timestamped measurement, the unit in-situ
// sensors produce and the SOS service serves.
type Observation struct {
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// Irregular is a time-ordered sequence of observations with no fixed step,
// as produced by event-driven sensors and manual samples.
//
// Storage is append-only: an in-order Add appends, and an out-of-order
// Add copies the backing array before inserting. Views handed out by
// WindowView therefore stay valid — and data-race free under a
// single-writer/many-reader locking discipline — while new observations
// continue to arrive.
type Irregular struct {
	obs []Observation
	// idx is the multi-resolution rollup index (rollup.go); nil until
	// EnableRollups. Add keeps it incrementally up to date.
	idx *rollupIndex
}

// NewIrregular returns an Irregular holding a sorted copy of obs.
func NewIrregular(obs []Observation) *Irregular {
	cp := make([]Observation, len(obs))
	copy(cp, obs)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Time.Before(cp[j].Time) })
	return &Irregular{obs: cp}
}

// Len returns the number of observations.
func (ir *Irregular) Len() int { return len(ir.obs) }

// At returns observation i.
func (ir *Irregular) At(i int) Observation { return ir.obs[i] }

// Add inserts an observation, keeping time order. Appends are O(1)
// amortised; an out-of-order insert copies the backing array
// (copy-on-write), so views returned by WindowView before the insert keep
// seeing the pre-insert sequence instead of shifted memory.
func (ir *Irregular) Add(o Observation) {
	n := len(ir.obs)
	if n == 0 || !o.Time.Before(ir.obs[n-1].Time) {
		ir.obs = append(ir.obs, o)
	} else {
		i := sort.Search(n, func(i int) bool { return ir.obs[i].Time.After(o.Time) })
		next := make([]Observation, n+1)
		copy(next, ir.obs[:i])
		next[i] = o
		copy(next[i+1:], ir.obs[i:])
		ir.obs = next
	}
	if ir.idx != nil {
		ir.idx.add(o)
	}
}

// WindowView returns the observations with Time in [from, to) as a
// zero-copy view of the underlying storage. Callers must treat the view
// as read-only. Because storage is append-only (out-of-order inserts
// copy), a view taken under a read lock remains valid and race-free
// after the lock is released, even while a single writer keeps
// appending.
func (ir *Irregular) WindowView(from, to time.Time) []Observation {
	lo := sort.Search(len(ir.obs), func(i int) bool { return !ir.obs[i].Time.Before(from) })
	hi := sort.Search(len(ir.obs), func(i int) bool { return !ir.obs[i].Time.Before(to) })
	if hi < lo {
		hi = lo
	}
	return ir.obs[lo:hi:hi]
}

// Nearest returns the observation closest in time to t. This is the
// primitive behind the paper's Fig. 5 multimodal widget, which pairs each
// sensor reading with "the corresponding webcam image taken roughly at the
// same time". It returns false when the sequence is empty.
func (ir *Irregular) Nearest(t time.Time) (Observation, bool) {
	n := len(ir.obs)
	if n == 0 {
		return Observation{}, false
	}
	i := sort.Search(n, func(i int) bool { return !ir.obs[i].Time.Before(t) })
	switch {
	case i == 0:
		return ir.obs[0], true
	case i == n:
		return ir.obs[n-1], true
	}
	before, after := ir.obs[i-1], ir.obs[i]
	if t.Sub(before.Time) <= after.Time.Sub(t) {
		return before, true
	}
	return after, true
}
