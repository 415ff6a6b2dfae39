package runcache

import (
	"context"
	"fmt"
	"testing"
)

func TestFamilyStaleFallback(t *testing.T) {
	c := New[int](4, nil)
	ctx := context.Background()

	if _, ok := c.Stale("cat|model|base"); ok {
		t.Fatal("empty cache served a stale value")
	}
	v, outcome, err := c.DoFamily(ctx, "cat|model|base|at=100", "cat|model|base",
		func(context.Context) (int, error) { return 41, nil })
	if err != nil || outcome != Miss || v != 41 {
		t.Fatalf("DoFamily = (%d, %v, %v)", v, outcome, err)
	}
	// A newer variant of the same family replaces the fallback value.
	if _, _, err := c.DoFamily(ctx, "cat|model|base|at=200", "cat|model|base",
		func(context.Context) (int, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Stale("cat|model|base")
	if !ok || got != 42 {
		t.Fatalf("Stale = (%d, %v), want freshest family value 42", got, ok)
	}
	if st := c.Stats(); st.StaleHits != 1 {
		t.Fatalf("StaleHits = %d, want 1", st.StaleHits)
	}

	// Errors never populate the family index.
	if _, _, err := c.DoFamily(ctx, "other|at=1", "other",
		func(context.Context) (int, error) { return 0, fmt.Errorf("boom") }); err == nil {
		t.Fatal("computation error swallowed")
	}
	if _, ok := c.Stale("other"); ok {
		t.Fatal("failed computation served as stale value")
	}

	// A cache hit on a family variant still refreshes the fallback path.
	if v, outcome, _ := c.DoFamily(ctx, "cat|model|base|at=100", "cat|model|base",
		func(context.Context) (int, error) { return -1, nil }); outcome != Hit || v != 41 {
		t.Fatalf("variant re-read = (%d, %v), want cached (41, Hit)", v, outcome)
	}
	if got, ok := c.Stale("cat|model|base"); !ok || got != 41 {
		t.Fatalf("Stale after hit = (%d, %v), want (41, true)", got, ok)
	}

	// Purge invalidates fallbacks along with the primary entries.
	c.Purge()
	if _, ok := c.Stale("cat|model|base"); ok {
		t.Fatal("Stale survived Purge")
	}
}

func TestFamilyIndexBounded(t *testing.T) {
	c := New[int](2, nil)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		fam := fmt.Sprintf("f%d", i)
		if _, _, err := c.DoFamily(ctx, fam+"|k", fam,
			func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	n := c.fams.Len()
	c.mu.Unlock()
	if n != 2 {
		t.Fatalf("family index size = %d, want capacity bound 2", n)
	}
	if _, ok := c.Stale("f0"); ok {
		t.Fatal("evicted family still served")
	}
	if got, ok := c.Stale("f4"); !ok || got != 4 {
		t.Fatalf("freshest family = (%d, %v), want (4, true)", got, ok)
	}
}
