package timeseries

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// downsampleReference is Downsample as it was before the single scan:
// the anchor read back from out, the extremes found by a second pass
// over obs and time order restored by a reflective sort. The property
// test and FuzzDownsample hold Downsample to its picks bit for bit.
func downsampleReference(obs []Observation, points int) []Observation {
	if points < 4 {
		points = 4
	}
	if len(obs) <= points {
		return obs
	}

	inner := points - 2
	interior := len(obs) - 2
	out := make([]Observation, 0, points)
	chosen := make([]int, 0, points)
	out = append(out, obs[0])
	chosen = append(chosen, 0)

	bucketLo := func(i int) int { return 1 + i*interior/inner }
	for b := 0; b < inner; b++ {
		lo, hi := bucketLo(b), bucketLo(b+1)
		nlo, nhi := hi, len(obs)-1
		if b+1 < inner {
			nhi = bucketLo(b + 2)
		} else {
			nhi = nlo + 1
		}
		var cx, cy float64
		for i := nlo; i < nhi; i++ {
			cx += float64(obs[i].Time.UnixNano())
			cy += obs[i].Value
		}
		cx /= float64(nhi - nlo)
		cy /= float64(nhi - nlo)

		prev := out[len(out)-1]
		ax, ay := float64(prev.Time.UnixNano()), prev.Value
		best, bestArea := lo, -1.0
		for i := lo; i < hi; i++ {
			bx, by := float64(obs[i].Time.UnixNano()), obs[i].Value
			area := (ax-cx)*(by-ay) - (ax-bx)*(cy-ay)
			if area < 0 {
				area = -area
			}
			if area > bestArea {
				bestArea, best = area, i
			}
		}
		out = append(out, obs[best])
		chosen = append(chosen, best)
	}
	out = append(out, obs[len(obs)-1])
	chosen = append(chosen, len(obs)-1)

	argMin, argMax := 0, 0
	for i, o := range obs {
		if o.Value < obs[argMin].Value {
			argMin = i
		}
		if o.Value > obs[argMax].Value {
			argMax = i
		}
	}
	has := func(idx int) bool {
		for _, c := range chosen {
			if c == idx {
				return true
			}
		}
		return false
	}
	slotOf := func(idx int) int {
		b := sort.Search(inner, func(b int) bool { return bucketLo(b+1) > idx })
		if b >= inner {
			b = inner - 1
		}
		return 1 + b
	}
	place := func(idx, otherIdx int) {
		s := slotOf(idx)
		if chosen[s] == otherIdx {
			if s+1 <= inner {
				s++
			} else {
				s--
			}
		}
		out[s], chosen[s] = obs[idx], idx
	}
	if !has(argMin) {
		place(argMin, argMax)
	}
	if !has(argMax) {
		place(argMax, argMin)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// samePicks reports whether got and want hold the same observations in
// the same order: equal instants and bit-identical values.
func samePicks(got, want []Observation) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !got[i].Time.Equal(want[i].Time) || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			return false
		}
	}
	return true
}

// TestDownsampleMatchesReference runs seeded inputs built to stress
// the order-sensitive parts of the picks: NaNs (which never compare),
// values drawn from a handful (ties for the extremes and the largest
// triangle) and runs of equal timestamps (ties for the stable sort).
func TestDownsampleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pool := []float64{0, 1, -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 20000; trial++ {
		n := rng.Intn(400)
		obs := make([]Observation, n)
		at := t0
		for i := range obs {
			if rng.Intn(4) != 0 {
				at = at.Add(time.Duration(1+rng.Intn(3)) * time.Minute)
			}
			var v float64
			switch rng.Intn(3) {
			case 0:
				v = pool[rng.Intn(len(pool))]
			case 1:
				v = float64(rng.Intn(4))
			default:
				v = rng.NormFloat64()
			}
			obs[i] = Observation{Time: at, Value: v}
		}
		points := rng.Intn(64)
		if got, want := Downsample(obs, points), downsampleReference(obs, points); !samePicks(got, want) {
			t.Fatalf("trial %d (n=%d, points=%d):\ngot  %v\nwant %v", trial, n, points, got, want)
		}
	}
}

// FuzzDownsample holds Downsample to the reference for arbitrary
// inputs: each 9-byte record is a time step of 0 to 3 minutes (0 makes
// equal timestamps) and the bits of a float64 value.
func FuzzDownsample(f *testing.F) {
	record := func(step byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{step}, math.Float64bits(v))
	}
	var seed []byte
	for i, v := range []float64{3, math.NaN(), 1, 1, -2, math.Inf(1), 0, 7, 7, -2, 5, math.NaN()} {
		seed = append(seed, record(byte(i%3), v)...)
	}
	f.Add(seed, 4)
	f.Add(seed, 6)
	f.Add(append(record(1, math.NaN()), seed...), 5)
	f.Fuzz(func(t *testing.T, data []byte, points int) {
		if len(data) > 9*4096 {
			return
		}
		obs := make([]Observation, 0, len(data)/9)
		at := t0
		for ; len(data) >= 9; data = data[9:] {
			at = at.Add(time.Duration(data[0]%4) * time.Minute)
			obs = append(obs, Observation{Time: at, Value: math.Float64frombits(binary.LittleEndian.Uint64(data[1:9]))})
		}
		if got, want := Downsample(obs, points), downsampleReference(obs, points); !samePicks(got, want) {
			t.Fatalf("points=%d, %v:\ngot  %v\nwant %v", points, obs, got, want)
		}
	})
}
