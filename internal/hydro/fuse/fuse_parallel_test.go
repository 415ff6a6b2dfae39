package fuse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"evop/internal/hydro"
	"evop/internal/sched"
	"evop/internal/timeseries"
)

func seriesIdentical(t *testing.T, label string, want, got *timeseries.Series) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: len %d != %d", label, got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		// Bit-identical, not approximately equal: the parallel path must
		// do the same float operations in the same order.
		if got.At(i) != want.At(i) {
			t.Fatalf("%s: sample %d = %v, want %v", label, i, got.At(i), want.At(i))
		}
	}
}

// ensembleMembers runs the ensemble and returns clones of the members
// the visitor saw, in decision order, with the mean.
func ensembleMembers(t *testing.T, p *sched.Pool, decs []Decisions, params Params, f hydro.Forcing) ([]*timeseries.Series, *timeseries.Series) {
	t.Helper()
	var members []*timeseries.Series
	mean, err := RunEnsembleOn(context.Background(), p, decs, params, f, func(_ int, q *timeseries.Series) error {
		members = append(members, q.Clone())
		return nil
	})
	if err != nil {
		t.Fatalf("ensemble (pool=%v): %v", p != nil, err)
	}
	return members, mean
}

// TestRunEnsembleOnMatchesSequential pins the ensemble determinism
// contract: every member and the mean are bit-identical to the
// sequential run for any worker count.
func TestRunEnsembleOnMatchesSequential(t *testing.T) {
	f := testForcing(t, 240, 11)
	decs := AllDecisions()
	params := DefaultParams()
	want, wantMean := ensembleMembers(t, nil, decs, params, f)
	for _, workers := range []int{1, 2, 4, 8} {
		p, err := sched.New(sched.Config{Workers: workers})
		if err != nil {
			t.Fatalf("New(workers=%d): %v", workers, err)
		}
		got, gotMean := ensembleMembers(t, p, decs, params, f)
		p.Close()
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d members, want %d", workers, len(got), len(want))
		}
		for i := range want {
			seriesIdentical(t, decs[i].String(), want[i], got[i])
		}
		seriesIdentical(t, "mean", wantMean, gotMean)
	}
}

// TestRunEnsembleOnCancellation: a canceled context surfaces as a
// wrapped context error, on the pool and inline alike.
func TestRunEnsembleOnCancellation(t *testing.T) {
	f := testForcing(t, 48, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p, err := sched.New(sched.Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	for _, pool := range []*sched.Pool{nil, p} {
		if _, err := RunEnsembleOn(ctx, pool, AllDecisions(), DefaultParams(), f, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("pool=%v: err = %v, want context.Canceled", pool != nil, err)
		}
	}
}

// TestRunEnsembleOnMemberError: a bad decision set fails the whole
// ensemble with that member's build error.
func TestRunEnsembleOnMemberError(t *testing.T) {
	f := testForcing(t, 48, 3)
	decs := []Decisions{baseDecisions(), {Upper: 99, Perc: PercFieldCap, Base: BaseLinear, Routing: RouteNone}}
	p, err := sched.New(sched.Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	if _, err := RunEnsembleOn(context.Background(), p, decs, DefaultParams(), f, nil); !errors.Is(err, ErrBadDecision) {
		t.Fatalf("err = %v, want ErrBadDecision", err)
	}
}

// TestRunEnsembleOnConcurrent runs ensembles of different sets and
// lengths from several goroutines at once on one shared pool, so pooled
// scratch moves between them mid-run; every member and mean must match
// the inline run. Run it under -race.
func TestRunEnsembleOnConcurrent(t *testing.T) {
	all := AllDecisions()
	type job struct {
		decs    []Decisions
		f       hydro.Forcing
		members []*timeseries.Series
		mean    *timeseries.Series
	}
	jobs := []*job{
		{decs: all, f: testForcing(t, 300, 1)},
		{decs: portalDecisions(), f: testForcing(t, 90, 2)},
		{decs: []Decisions{all[5], all[4], all[5]}, f: testForcing(t, 500, 3)},
	}
	for _, j := range jobs {
		j.members, j.mean = ensembleMembers(t, nil, j.decs, DefaultParams(), j.f)
	}
	p, err := sched.New(sched.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const goroutines, rounds = 3, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := jobs[(g+r)%len(jobs)]
				i := 0
				mean, err := RunEnsembleOn(context.Background(), p, j.decs, DefaultParams(), j.f, func(k int, q *timeseries.Series) error {
					if k != i || !slices.Equal(q.Raw(), j.members[k].Raw()) {
						return fmt.Errorf("member %d (visit %d) differs from the inline run", k, i)
					}
					i++
					return nil
				})
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !slices.Equal(mean.Raw(), j.mean.Raw()) {
					t.Errorf("goroutine %d round %d: mean differs from the inline run", g, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}
