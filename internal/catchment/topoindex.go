package catchment

import (
	"fmt"
	"math"
	"sort"
)

// FlowField holds the D8 routing products computed from a DEM: per-cell
// flow direction, upslope contributing area and local slope.
type FlowField struct {
	dem *DEM
	// downIdx[i] is the linear index of the cell that cell i drains to,
	// or -1 for cells that drain off-grid.
	downIdx []int
	// accum[i] is the number of cells draining through cell i (itself
	// included).
	accum []float64
	// slope[i] is tan(beta) in the steepest descent direction.
	slope []float64
}

// ComputeFlow derives D8 flow directions, flow accumulation and slopes
// from the DEM. The DEM should be pit-filled first; any remaining pit is
// treated as draining off-grid.
func ComputeFlow(d *DEM) (*FlowField, error) {
	n := d.rows * d.cols
	f := &FlowField{
		dem:     d,
		downIdx: make([]int, n),
		accum:   make([]float64, n),
		slope:   make([]float64, n),
	}
	diag := d.cellSize * math.Sqrt2
	for r := 0; r < d.rows; r++ {
		for c := 0; c < d.cols; c++ {
			i := d.idx(r, c)
			z := d.elev[i]
			best := -1
			bestSlope := 0.0
			for _, nb := range neighbours {
				nr, nc := r+nb.dr, c+nb.dc
				if !d.InBounds(nr, nc) {
					continue
				}
				dist := d.cellSize
				if nb.dr != 0 && nb.dc != 0 {
					dist = diag
				}
				s := (z - d.elev[d.idx(nr, nc)]) / dist
				if s > bestSlope {
					bestSlope = s
					best = d.idx(nr, nc)
				}
			}
			// Edge cells with no downhill neighbour drain off-grid at a
			// nominal slope; interior pits likewise (post pit-fill these
			// are rare).
			if best < 0 {
				f.downIdx[i] = -1
				if bestSlope <= 0 {
					bestSlope = 0.001
				}
			} else {
				f.downIdx[i] = best
			}
			if bestSlope < 0.001 {
				bestSlope = 0.001
			}
			f.slope[i] = bestSlope
			f.accum[i] = 1
		}
	}
	// Accumulate flow in decreasing elevation order: every cell's area is
	// passed to its downstream neighbour after all higher cells have
	// contributed.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return d.elev[order[a]] > d.elev[order[b]] })
	for _, i := range order {
		if dn := f.downIdx[i]; dn >= 0 {
			f.accum[dn] += f.accum[i]
		}
	}
	return f, nil
}

// TopoIndex computes the per-cell topographic index ln(a / tanB), where a
// is the specific upslope area (contributing area per unit contour width)
// and tanB the local slope. This is the quantity TOPMODEL's storage-deficit
// theory is built on.
func (f *FlowField) TopoIndex() []float64 {
	out := make([]float64, len(f.accum))
	for i := range out {
		a := f.accum[i] * f.dem.CellAreaM2() / f.dem.cellSize
		out[i] = math.Log(a / f.slope[i])
	}
	return out
}

// TIDistribution is a discretised topographic index distribution: bin
// centres with the fraction of catchment area in each bin. TOPMODEL
// iterates over these bins instead of raw grid cells.
type TIDistribution struct {
	// Values are the bin-centre ln(a/tanB) values, ascending.
	Values []float64 `json:"values"`
	// Fractions are the area fractions per bin; they sum to 1.
	Fractions []float64 `json:"fractions"`
	// Mean is the area-weighted mean topographic index (lambda in the
	// TOPMODEL literature).
	Mean float64 `json:"mean"`
}

// TIDistribution bins the per-cell topographic index into nBins
// equal-width classes.
func (f *FlowField) TIDistribution(nBins int) (*TIDistribution, error) {
	if nBins < 1 {
		return nil, fmt.Errorf("nBins=%d: %w", nBins, ErrBadGrid)
	}
	ti := f.TopoIndex()
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, v := range ti {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV <= minV {
		maxV = minV + 1
	}
	width := (maxV - minV) / float64(nBins)
	counts := make([]float64, nBins)
	for _, v := range ti {
		b := int((v - minV) / width)
		if b >= nBins {
			b = nBins - 1
		}
		counts[b]++
	}
	dist := &TIDistribution{
		Values:    make([]float64, nBins),
		Fractions: make([]float64, nBins),
	}
	total := float64(len(ti))
	for b := 0; b < nBins; b++ {
		dist.Values[b] = minV + (float64(b)+0.5)*width
		dist.Fractions[b] = counts[b] / total
		dist.Mean += dist.Values[b] * dist.Fractions[b]
	}
	return dist, nil
}

// Validate checks internal consistency of the distribution: finite,
// ascending values, finite non-negative fractions summing to 1, and a
// finite mean. TOPMODEL's step loop relies on the values' order, which
// a NaN would break unseen, since it compares false both ways.
func (d *TIDistribution) Validate() error {
	if len(d.Values) == 0 || len(d.Values) != len(d.Fractions) {
		return fmt.Errorf("catchment: TI distribution has %d values, %d fractions: %w",
			len(d.Values), len(d.Fractions), ErrBadGrid)
	}
	if math.IsNaN(d.Mean) || math.IsInf(d.Mean, 0) {
		return fmt.Errorf("catchment: TI mean %v not finite: %w", d.Mean, ErrBadGrid)
	}
	sum := 0.0
	for i, f := range d.Fractions {
		v := d.Values[i]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("catchment: TI value %v at bin %d not finite: %w", v, i, ErrBadGrid)
		case math.IsNaN(f) || math.IsInf(f, 0):
			return fmt.Errorf("catchment: fraction %v at bin %d not finite: %w", f, i, ErrBadGrid)
		case f < 0:
			return fmt.Errorf("catchment: negative fraction at bin %d: %w", i, ErrBadGrid)
		case i > 0 && v < d.Values[i-1]:
			return fmt.Errorf("catchment: TI values not ascending at bin %d: %w", i, ErrBadGrid)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("catchment: fractions sum to %v, want 1: %w", sum, ErrBadGrid)
	}
	return nil
}
