package fuse

// Run takes its scratch from a shared pool and returns a copy of the
// output. These tests hold it to runInto in a fresh scratch, bit for
// bit, whatever the pooled scratch last held.

import (
	"math"
	"sync"
	"testing"

	"evop/internal/hydro"
	"evop/internal/timeseries"
)

// freshRun is the oracle: the kernel in a scratch nothing else has
// touched.
func freshRun(t *testing.T, m *Model, f hydro.Forcing) *timeseries.Series {
	t.Helper()
	q, err := m.runInto(f, &Scratch{})
	if err != nil {
		t.Fatalf("runInto: %v", err)
	}
	return q
}

// TestRunMatchesFreshScratch walks every structure, routed and not,
// alternating long and short forcings so the pool hands a run a scratch
// sized by a longer one and then a shorter one, with a run failing on
// bad forcing in between.
func TestRunMatchesFreshScratch(t *testing.T) {
	for i, d := range AllDecisions() {
		m, err := New(d, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		hours := 100 + 7*i
		if i%2 == 0 {
			hours += 500
		}
		f := testForcing(t, hours, int64(i))
		if i%3 == 0 {
			bad := testForcing(t, hours, int64(i))
			bad.PET.SetAt(hours/2, math.NaN())
			if _, err := m.Run(bad); err == nil {
				t.Fatalf("%v: NaN PET accepted", d)
			}
		}
		got, err := m.Run(f)
		if err != nil {
			t.Fatalf("%v: Run: %v", d, err)
		}
		seriesIdentical(t, d.String(), freshRun(t, m, f), got)
	}
}

// TestRunResultIsOwned: overwriting a returned series leaves the next
// run untouched, routed or not.
func TestRunResultIsOwned(t *testing.T) {
	f := testForcing(t, 200, 5)
	for _, routing := range []Routing{RouteNone, RouteGammaUH} {
		d := baseDecisions()
		d.Routing = routing
		m, err := New(d, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		first, err := m.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < first.Len(); i++ {
			first.SetAt(i, -1)
		}
		second, err := m.Run(f)
		if err != nil {
			t.Fatal(err)
		}
		seriesIdentical(t, d.String(), freshRun(t, m, f), second)
		if first.At(0) != -1 {
			t.Fatalf("%v: the second run wrote into the first run's series", d)
		}
	}
}

// TestRunConcurrentMatchesSequential runs differently sized simulations
// of every structure from several goroutines at once, so pooled scratch
// moves between them; run it under -race.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	type job struct {
		m    *Model
		f    hydro.Forcing
		want *timeseries.Series
	}
	var jobs []job
	for i, d := range AllDecisions() {
		m, err := New(d, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		f := testForcing(t, 60+40*(i%5), int64(i))
		jobs = append(jobs, job{m: m, f: f, want: freshRun(t, m, f)})
	}
	const goroutines, rounds = 4, 3
	got := make([][]*timeseries.Series, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]*timeseries.Series, rounds*len(jobs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range got[g] {
				j := jobs[(k+g)%len(jobs)]
				q, err := j.m.Run(j.f)
				if err != nil {
					t.Errorf("goroutine %d run %d: %v", g, k, err)
					return
				}
				got[g][k] = q
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g := range got {
		for k, q := range got[g] {
			j := jobs[(k+g)%len(jobs)]
			seriesIdentical(t, j.m.Name(), j.want, q)
		}
	}
}
