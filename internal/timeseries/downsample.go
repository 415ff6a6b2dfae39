package timeseries

import (
	"slices"
	"sort"
)

// Downsample reduces obs (time-ordered) to at most points observations
// using largest-triangle-three-buckets, the downsampler built for
// plotting: the first and last observations survive, and each interior
// bucket keeps the point forming the largest triangle with the
// previously kept point and the next bucket's centroid, preserving the
// visual shape of the series. On top of plain LTTB the window's global
// minimum and maximum are reinstated if the triangle heuristic dropped
// them, so extremes — the readings flood and drought widgets exist to
// show — always survive.
//
// The input is not copied: when it is already small enough it is
// returned as-is, otherwise the result is a fresh slice of at most
// points observations. points below 4 is treated as 4 (first, last, and
// room for both extremes).
func Downsample(obs []Observation, points int) []Observation {
	if points < 4 {
		points = 4
	}
	if len(obs) <= points {
		return obs
	}

	inner := points - 2      // interior budget
	interior := len(obs) - 2 // candidate points between the endpoints
	out := make([]Observation, 0, points)
	chosen := make([]int, 0, points) // original indices, parallel to out
	out = append(out, obs[0])
	chosen = append(chosen, 0)

	bucketLo := func(i int) int { return 1 + i*interior/inner }
	// The global extremes are found in index order, as a plain scan
	// would (the first of tied values wins; a NaN never displaces):
	// indices before the second bucket here, the rest as each centroid
	// pass reads them.
	argMin, argMax := 0, 0
	extremes := func(i int) {
		if obs[i].Value < obs[argMin].Value {
			argMin = i
		}
		if obs[i].Value > obs[argMax].Value {
			argMax = i
		}
	}
	for i := 1; i < bucketLo(1); i++ {
		extremes(i)
	}
	ax, ay := float64(obs[0].Time.UnixNano()), obs[0].Value
	for b := 0; b < inner; b++ {
		lo, hi := bucketLo(b), bucketLo(b+1)
		// Centroid of the next bucket (the last point for the final one).
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
			extremes(i)
		}
		cx /= float64(nhi - nlo)
		cy /= float64(nhi - nlo)

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
		ax, ay = float64(obs[best].Time.UnixNano()), obs[best].Value
	}
	out = append(out, obs[len(obs)-1])
	chosen = append(chosen, len(obs)-1)

	reinstateExtremes(obs, out, chosen, argMin, argMax, bucketLo, inner)
	return out
}

// reinstateExtremes overwrites interior picks so the global min and max
// observations, obs[argMin] and obs[argMax], are present in out, then
// restores time order.
func reinstateExtremes(obs, out []Observation, chosen []int, argMin, argMax int, bucketLo func(int) int, inner int) {
	has := func(idx int) bool {
		for _, c := range chosen {
			if c == idx {
				return true
			}
		}
		return false
	}
	// slotOf maps an original index to its bucket's slot in out
	// (interior slots are 1..inner; endpoints are never overwritten).
	slotOf := func(idx int) int {
		b := sort.Search(inner, func(b int) bool { return bucketLo(b+1) > idx })
		if b >= inner {
			b = inner - 1
		}
		return 1 + b
	}
	// place overwrites idx's bucket slot, spilling to an adjacent
	// interior slot when that slot holds the other extreme (either
	// because both extremes share a bucket, or because LTTB itself had
	// picked the other extreme there). inner >= 2 whenever an interior
	// extreme needs a slot, so an adjacent slot always exists.
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
	slices.SortStableFunc(out, func(a, b Observation) int { return a.Time.Compare(b.Time) })
}
