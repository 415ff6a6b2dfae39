package topmodel

// Run takes its scratch from a shared pool and returns a copy of the
// discharge. These tests hold it to a fresh-scratch RunDetailed, bit for
// bit, whatever the pooled scratch last held.

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"evop/internal/hydro"
	"evop/internal/timeseries"
)

// RunDetailed simulates in a fresh scratch and returns all output
// components: the tests' unpooled reference run.
func (m *Model) RunDetailed(f hydro.Forcing) (*Output, error) {
	return m.runDetailed(f, &scratch{})
}

// freshDischarge is the oracle: the kernel in a scratch nothing else
// has touched.
func freshDischarge(t *testing.T, m *Model, f hydro.Forcing) *timeseries.Series {
	t.Helper()
	out, err := m.RunDetailed(f)
	if err != nil {
		t.Fatalf("RunDetailed: %v", err)
	}
	return out.Discharge
}

// TestRunMatchesFreshScratch alternates long and short forcings, so the
// pool hands a run a scratch sized by a longer one and then a shorter
// one, with a run failing on bad forcing in between.
func TestRunMatchesFreshScratch(t *testing.T) {
	ti := testTI(t)
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 12; trial++ {
		m, err := New(randomParams(rng), ti)
		if err != nil {
			t.Fatal(err)
		}
		n := 100 + rng.Intn(100)
		if trial%2 == 0 {
			n += 600
		}
		f := randomForcing(t, rng, n)
		if trial%3 == 0 {
			bad := randomForcing(t, rng, n)
			bad.Rain.SetAt(n/2, math.NaN())
			if _, err := m.Run(bad); err == nil {
				t.Fatalf("trial %d: NaN rain accepted", trial)
			}
		}
		got, err := m.Run(f)
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		sameSeries(t, "discharge", freshDischarge(t, m, f), got)
	}
}

// TestRunResultIsOwned: overwriting a returned series leaves the next
// run untouched.
func TestRunResultIsOwned(t *testing.T) {
	ti := testTI(t)
	m, err := New(DefaultParams(), ti)
	if err != nil {
		t.Fatal(err)
	}
	f := randomForcing(t, rand.New(rand.NewSource(4)), 300)
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
	sameSeries(t, "discharge", freshDischarge(t, m, f), second)
	if first.At(0) != -1 {
		t.Fatal("the second run wrote into the first run's series")
	}
}

// TestRunConcurrentMatchesSequential runs differently sized simulations
// from several goroutines at once, so pooled scratch moves between
// them; run it under -race.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	ti := testTI(t)
	rng := rand.New(rand.NewSource(8))
	type job struct {
		m    *Model
		f    hydro.Forcing
		want *timeseries.Series
	}
	jobs := make([]job, 8)
	for i := range jobs {
		m, err := New(randomParams(rng), ti)
		if err != nil {
			t.Fatal(err)
		}
		f := randomForcing(t, rng, 150+100*i)
		jobs[i] = job{m: m, f: f, want: freshDischarge(t, m, f)}
	}
	const goroutines, rounds = 4, 6
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
			sameSeries(t, "discharge", jobs[(k+g)%len(jobs)].want, q)
		}
	}
}
