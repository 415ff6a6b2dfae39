//go:build !race

package topmodel

import (
	"math/rand"
	"testing"
)

// TestRunAllocatesOnlyItsResult pins Run to the series it returns: the
// Series header and its values, with the simulation buffers drawn from
// the pool. Guarded out under the race detector, which drops pooled
// items at random.
func TestRunAllocatesOnlyItsResult(t *testing.T) {
	m, err := New(DefaultParams(), testTI(t))
	if err != nil {
		t.Fatal(err)
	}
	f := randomForcing(t, rand.New(rand.NewSource(3)), 720)
	if _, err := m.Run(f); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := m.Run(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Run allocs = %v, want <= 2 (the returned series)", allocs)
	}
}
