package timeseries

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func obsAt(minutes int, v float64) Observation {
	return Observation{Time: t0.Add(time.Duration(minutes) * time.Minute), Value: v}
}

func TestNewIrregularSorts(t *testing.T) {
	ir := NewIrregular([]Observation{obsAt(30, 2), obsAt(10, 1), obsAt(20, 3)})
	if ir.Len() != 3 {
		t.Fatalf("Len = %d", ir.Len())
	}
	for i := 1; i < ir.Len(); i++ {
		if ir.At(i).Time.Before(ir.At(i - 1).Time) {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestIrregularAddKeepsOrder(t *testing.T) {
	ir := NewIrregular(nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		ir.Add(obsAt(rng.Intn(1000), float64(i)))
	}
	obs := ir.obs
	if !sort.SliceIsSorted(obs, func(i, j int) bool { return obs[i].Time.Before(obs[j].Time) }) {
		t.Fatal("Add broke time ordering")
	}
	if ir.Len() != 200 {
		t.Fatalf("Len = %d, want 200", ir.Len())
	}
}

func TestIrregularWindow(t *testing.T) {
	ir := NewIrregular([]Observation{obsAt(0, 0), obsAt(10, 1), obsAt(20, 2), obsAt(30, 3)})
	got := ir.WindowView(t0.Add(10*time.Minute), t0.Add(30*time.Minute))
	if len(got) != 2 || got[0].Value != 1 || got[1].Value != 2 {
		t.Fatalf("WindowView = %+v", got)
	}
	if got := ir.WindowView(t0.Add(time.Hour), t0.Add(2*time.Hour)); len(got) != 0 {
		t.Fatalf("disjoint WindowView = %+v", got)
	}
}

func TestIrregularNearest(t *testing.T) {
	ir := NewIrregular([]Observation{obsAt(0, 0), obsAt(10, 1), obsAt(30, 2)})
	tests := []struct {
		name string
		at   int // minutes
		want float64
	}{
		{"exact", 10, 1},
		{"closer to earlier", 14, 1},
		{"closer to later", 26, 2},
		{"tie goes to earlier", 20, 1},
		{"before first", -100, 0},
		{"after last", 100, 2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ir.Nearest(t0.Add(time.Duration(tc.at) * time.Minute))
			if !ok || got.Value != tc.want {
				t.Fatalf("Nearest = %v,%v want %v,true", got.Value, ok, tc.want)
			}
		})
	}
	if _, ok := NewIrregular(nil).Nearest(t0); ok {
		t.Fatal("empty Nearest ok = true")
	}
}

func TestNearestIsNearestProperty(t *testing.T) {
	// Property: Nearest(t) returns an observation at minimal |t - obs.Time|.
	f := func(offsets []int16, probe int16) bool {
		if len(offsets) == 0 {
			return true
		}
		obs := make([]Observation, len(offsets))
		for i, o := range offsets {
			obs[i] = Observation{Time: t0.Add(time.Duration(o) * time.Second), Value: float64(i)}
		}
		ir := NewIrregular(obs)
		at := t0.Add(time.Duration(probe) * time.Second)
		got, ok := ir.Nearest(at)
		if !ok {
			return false
		}
		best := time.Duration(math.MaxInt64)
		for _, o := range obs {
			d := o.Time.Sub(at)
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
			}
		}
		d := got.Time.Sub(at)
		if d < 0 {
			d = -d
		}
		return d == best
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
