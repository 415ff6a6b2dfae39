package catchment

import (
	"errors"
	"math"
	"testing"
)

// Outlet returns the grid cell with the greatest flow accumulation — the
// catchment outlet.
func (f *FlowField) Outlet() (r, c int) {
	best := 0
	for i, a := range f.accum {
		if a > f.accum[best] {
			best = i
		}
	}
	return best / f.dem.cols, best % f.dem.cols
}

func drainedDEM(t *testing.T) *DEM {
	t.Helper()
	d, err := GenerateDEM(DefaultTerrain())
	if err != nil {
		t.Fatalf("GenerateDEM: %v", err)
	}
	d.FillPits()
	return d
}

func TestComputeFlowAccumulationConservation(t *testing.T) {
	d := drainedDEM(t)
	f, err := ComputeFlow(d)
	if err != nil {
		t.Fatalf("ComputeFlow: %v", err)
	}
	// Every cell contributes at least itself.
	for r := 0; r < d.Rows(); r++ {
		for c := 0; c < d.Cols(); c++ {
			if a := f.accum[d.idx(r, c)]; a < 1 {
				t.Fatalf("accumulation at (%d,%d) = %v < 1", r, c, a)
			}
		}
	}
	// Total area leaving the grid (cells draining off-grid) equals the
	// grid cell count: mass conservation of contributing area.
	var offGrid float64
	for i, dn := range f.downIdx {
		if dn == -1 {
			offGrid += f.accum[i]
		}
	}
	if total := float64(d.Rows() * d.Cols()); offGrid != total {
		t.Fatalf("area draining off-grid = %v, want %v", offGrid, total)
	}
}

func TestFlowMonotoneDownhill(t *testing.T) {
	d := drainedDEM(t)
	f, _ := ComputeFlow(d)
	for i, dn := range f.downIdx {
		if dn < 0 {
			continue
		}
		if d.elev[dn] >= d.elev[i] {
			t.Fatalf("cell %d drains uphill: %v -> %v", i, d.elev[i], d.elev[dn])
		}
	}
}

func TestOutletHasMaxAccumulation(t *testing.T) {
	d := drainedDEM(t)
	f, _ := ComputeFlow(d)
	r, c := f.Outlet()
	outletAcc := f.accum[d.idx(r, c)]
	// The valley generator drains towards row 0's centre; the outlet
	// should collect a large share of the catchment.
	if frac := outletAcc / float64(d.Rows()*d.Cols()); frac < 0.2 {
		t.Fatalf("outlet collects %.0f%% of the grid, want >=20%%", frac*100)
	}
	if r > d.Rows()/4 {
		t.Fatalf("outlet at row %d, want near the downstream (row 0) edge", r)
	}
}

func TestTopoIndexValleyHigherThanRidge(t *testing.T) {
	d := drainedDEM(t)
	f, _ := ComputeFlow(d)
	ti := f.TopoIndex()
	or, oc := f.Outlet()
	outletTI := ti[or*d.Cols()+oc]
	// A ridge-top cell (corner of the upstream edge) should have a much
	// lower index than the outlet.
	ridgeTI := ti[(d.Rows()-1)*d.Cols()]
	if outletTI <= ridgeTI {
		t.Fatalf("outlet TI %.2f not above ridge TI %.2f", outletTI, ridgeTI)
	}
	for i, v := range ti {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("TI[%d] = %v", i, v)
		}
	}
}

func TestTIDistribution(t *testing.T) {
	d := drainedDEM(t)
	f, _ := ComputeFlow(d)
	dist, err := f.TIDistribution(30)
	if err != nil {
		t.Fatalf("TIDistribution: %v", err)
	}
	if err := dist.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(dist.Values) != 30 {
		t.Fatalf("bins = %d, want 30", len(dist.Values))
	}
	// Mean should match the raw mean.
	ti := f.TopoIndex()
	var raw float64
	for _, v := range ti {
		raw += v
	}
	raw /= float64(len(ti))
	if math.Abs(dist.Mean-raw) > 0.5 {
		t.Fatalf("binned mean %.2f far from raw mean %.2f", dist.Mean, raw)
	}
	if _, err := f.TIDistribution(0); !errors.Is(err, ErrBadGrid) {
		t.Fatalf("nBins=0 err = %v", err)
	}
}

func TestTIDistributionValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name string
		d    TIDistribution
	}{
		{"empty", TIDistribution{}},
		{"length mismatch", TIDistribution{Values: []float64{1}, Fractions: []float64{0.5, 0.5}}},
		{"negative fraction", TIDistribution{Values: []float64{1, 2}, Fractions: []float64{-0.5, 1.5}}},
		{"not ascending", TIDistribution{Values: []float64{2, 1}, Fractions: []float64{0.5, 0.5}}},
		{"sum not one", TIDistribution{Values: []float64{1, 2}, Fractions: []float64{0.4, 0.4}}},
		// NaN compares false both ways, so an order check alone passes it.
		{"NaN value", TIDistribution{Values: []float64{3, nan, 1}, Fractions: []float64{0.25, 0.5, 0.25}}},
		{"NaN first value", TIDistribution{Values: []float64{nan, 1, 2}, Fractions: []float64{0.25, 0.5, 0.25}}},
		{"+Inf value", TIDistribution{Values: []float64{1, inf}, Fractions: []float64{0.5, 0.5}}},
		{"-Inf value", TIDistribution{Values: []float64{-inf, 1}, Fractions: []float64{0.5, 0.5}}},
		{"NaN fraction", TIDistribution{Values: []float64{1, 2}, Fractions: []float64{nan, 1}}},
		{"+Inf fraction", TIDistribution{Values: []float64{1, 2}, Fractions: []float64{inf, 0}}},
		{"NaN mean", TIDistribution{Values: []float64{1, 2}, Fractions: []float64{0.5, 0.5}, Mean: nan}},
		{"+Inf mean", TIDistribution{Values: []float64{1, 2}, Fractions: []float64{0.5, 0.5}, Mean: inf}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(); !errors.Is(err, ErrBadGrid) {
				t.Fatalf("Validate = %v, want ErrBadGrid", err)
			}
		})
	}
	ok := TIDistribution{Values: []float64{1, 2}, Fractions: []float64{0.25, 0.75}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid distribution rejected: %v", err)
	}
}
