package fuse

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"evop/internal/sched"
	"evop/internal/timeseries"
)

// seriesDigest hashes a series' start, step, length and value bits.
func seriesDigest(q *timeseries.Series) string {
	h := sha256.New()
	var buf [8]byte
	putU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU(uint64(q.Start().UnixNano()))
	putU(uint64(q.Step()))
	putU(uint64(q.Len()))
	for _, v := range q.Raw() {
		putU(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// portalDecisions is the portal's three-member ensemble.
func portalDecisions() []Decisions {
	return []Decisions{
		{Upper: UpperSingle, Perc: PercFieldCap, Base: BaseLinear, Routing: RouteGammaUH},
		{Upper: UpperTensionFree, Perc: PercWaterContent, Base: BasePower, Routing: RouteGammaUH},
		{Upper: UpperTensionFree, Perc: PercFieldCap, Base: BaseParallel, Routing: RouteGammaUH},
	}
}

// TestFUSEEnsembleGolden pins every member and the mean of three
// decision sets (all 24 structures; the portal's three; a set with a
// repeated decision and a routing-twin pair) at seeds 1 to 3 and 24 h,
// 90 d and 365 d, inline and on a 2-worker pool. The digests in
// testdata/ensemble_golden.txt were recorded before the ensemble moved
// to one task per routing-twin pair summed from pooled scratch.
func TestFUSEEnsembleGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/ensemble_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		want[line[:i]] = line[i+1:]
	}
	all, portal := AllDecisions(), portalDecisions()
	sets := []struct {
		name string
		decs []Decisions
	}{
		{"all", all},
		{"portal", portal},
		{"dup", []Decisions{portal[1], all[0], portal[1], all[1], portal[0]}},
	}
	pool, err := sched.New(sched.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	checked := 0
	check := func(key, got string) {
		t.Helper()
		checked++
		if w, ok := want[key]; !ok {
			t.Fatalf("%s: no recorded digest", key)
		} else if got != w {
			t.Errorf("%s: digest %s, want %s", key, got, w)
		}
	}
	for _, s := range sets {
		for seed := int64(1); seed <= 3; seed++ {
			for _, hours := range []int{24, 90 * 24, 365 * 24} {
				f := testForcing(t, hours, seed)
				for _, p := range []*sched.Pool{nil, pool} {
					prefix := fmt.Sprintf("%s %d %d", s.name, seed, hours)
					mean, err := RunEnsembleOn(context.Background(), p, s.decs, DefaultParams(), f, func(i int, q *timeseries.Series) error {
						check(fmt.Sprintf("%s %d", prefix, i), seriesDigest(q))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					check(prefix+" mean", seriesDigest(mean))
				}
			}
		}
	}
	if checked != 2*len(want) {
		t.Fatalf("checked %d digests, want each of %d twice", checked, len(want))
	}
}
