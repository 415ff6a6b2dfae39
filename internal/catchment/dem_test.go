package catchment

import (
	"errors"
	"math"
	"testing"
)

func TestNewDEMValidation(t *testing.T) {
	tests := []struct {
		name       string
		rows, cols int
		cell       float64
	}{
		{"one row", 1, 10, 50},
		{"one col", 10, 1, 50},
		{"zero cell", 10, 10, 0},
		{"negative cell", 10, 10, -5},
		{"NaN cell", 10, 10, math.NaN()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewDEM(tc.rows, tc.cols, tc.cell); !errors.Is(err, ErrBadGrid) {
				t.Fatalf("NewDEM err = %v, want ErrBadGrid", err)
			}
		})
	}
	d, err := NewDEM(4, 5, 50)
	if err != nil {
		t.Fatalf("NewDEM: %v", err)
	}
	if d.Rows() != 4 || d.Cols() != 5 || d.cellSize != 50 {
		t.Fatalf("dims = %dx%d cell=%v", d.Rows(), d.Cols(), d.cellSize)
	}
	if d.CellAreaM2() != 2500 {
		t.Fatalf("CellAreaM2 = %v", d.CellAreaM2())
	}
}

func TestElevationAccessors(t *testing.T) {
	d, _ := NewDEM(3, 3, 10)
	d.elev[d.idx(1, 2)] = 42
	z, err := d.Elevation(1, 2)
	if err != nil || z != 42 {
		t.Fatalf("Elevation = %v, %v", z, err)
	}
	if _, err := d.Elevation(3, 0); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out of bounds read err = %v", err)
	}
}

func TestGenerateDEMDeterministic(t *testing.T) {
	cfg := DefaultTerrain()
	a, err := GenerateDEM(cfg)
	if err != nil {
		t.Fatalf("GenerateDEM: %v", err)
	}
	b, _ := GenerateDEM(cfg)
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			za, _ := a.Elevation(r, c)
			zb, _ := b.Elevation(r, c)
			if za != zb {
				t.Fatalf("same seed diverged at (%d,%d)", r, c)
			}
		}
	}
	cfg.Seed = 99
	c, _ := GenerateDEM(cfg)
	zc, _ := c.Elevation(10, 10)
	za, _ := a.Elevation(10, 10)
	if zc == za {
		t.Fatal("different seeds produced identical terrain (suspicious)")
	}
}

func TestGenerateDEMShape(t *testing.T) {
	cfg := DefaultTerrain()
	d, err := GenerateDEM(cfg)
	if err != nil {
		t.Fatalf("GenerateDEM: %v", err)
	}
	// Valley structure: the channel column should be lower than the edges
	// on the same row (averaged to smooth out noise).
	mid := cfg.Cols / 2
	var channel, edge float64
	for r := 0; r < cfg.Rows; r++ {
		zc, _ := d.Elevation(r, mid)
		ze, _ := d.Elevation(r, 0)
		channel += zc
		edge += ze
	}
	if channel >= edge {
		t.Fatalf("channel mean %.1f not below edge mean %.1f", channel, edge)
	}
	// Downstream gradient: row 0 (outlet) lower than last row at channel.
	z0, _ := d.Elevation(0, mid)
	zN, _ := d.Elevation(cfg.Rows-1, mid)
	if z0 >= zN {
		t.Fatalf("outlet row %.1f not below headwater row %.1f", z0, zN)
	}
}

func TestGenerateDEMValidation(t *testing.T) {
	cfg := DefaultTerrain()
	cfg.ReliefM = 0
	if _, err := GenerateDEM(cfg); !errors.Is(err, ErrBadGrid) {
		t.Fatalf("zero relief err = %v", err)
	}
	cfg = DefaultTerrain()
	cfg.Rows = 1
	if _, err := GenerateDEM(cfg); !errors.Is(err, ErrBadGrid) {
		t.Fatalf("bad rows err = %v", err)
	}
	cfg = DefaultTerrain()
	cfg.RoughnessM = -1
	if _, err := GenerateDEM(cfg); !errors.Is(err, ErrBadGrid) {
		t.Fatalf("negative roughness err = %v", err)
	}
}

func TestFillPitsDrainsEverything(t *testing.T) {
	d, _ := NewDEM(8, 8, 10)
	// Bowl: everything drains inward to a pit at (4,4).
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			dr, dc := float64(r-4), float64(c-4)
			d.elev[d.idx(r, c)] = dr*dr + dc*dc
		}
	}
	raised := d.FillPits()
	if raised == 0 {
		t.Fatal("bowl DEM should need pit filling")
	}
	// After filling, every interior cell must have a strictly lower
	// neighbour.
	for r := 1; r < 7; r++ {
		for c := 1; c < 7; c++ {
			z, _ := d.Elevation(r, c)
			hasDown := false
			for _, nb := range neighbours {
				nz, _ := d.Elevation(r+nb.dr, c+nb.dc)
				if nz < z {
					hasDown = true
					break
				}
			}
			if !hasDown {
				t.Fatalf("cell (%d,%d) still a pit after FillPits", r, c)
			}
		}
	}
}

func TestFillPitsNoopOnDrainedDEM(t *testing.T) {
	cfg := DefaultTerrain()
	d, _ := GenerateDEM(cfg)
	d.FillPits()
	if again := d.FillPits(); again != 0 {
		t.Fatalf("second FillPits raised %d cells, want 0", again)
	}
}
