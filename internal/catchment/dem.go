// Package catchment provides the terrain substrate for EVOp's hydrological
// models: digital elevation models (DEMs), D8 flow routing, topographic
// index computation, and descriptions of the three LEFT study catchments
// (Morland, Tarland, Machynlleth).
//
// The paper's models were driven by observed DEMs of the study catchments;
// those rasters are licensed, so this package substitutes a deterministic
// synthetic DEM generator producing valley-shaped terrain with fractal
// roughness. The quantity TOPMODEL actually consumes — the distribution of
// the topographic index ln(a/tanB) — is then *computed* from the synthetic
// terrain with the same algorithms used on real DEMs (pit filling, D8 flow
// accumulation), so the model exercises the full real-data path.
package catchment

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Common errors.
var (
	// ErrBadGrid indicates invalid DEM dimensions or cell size.
	ErrBadGrid = errors.New("catchment: invalid grid")
	// ErrOutOfBounds indicates a cell index outside the DEM.
	ErrOutOfBounds = errors.New("catchment: cell out of bounds")
)

// DEM is a regular elevation grid. Elevations are metres above an
// arbitrary datum; cellSize is the grid spacing in metres.
type DEM struct {
	rows, cols int
	cellSize   float64
	elev       []float64 // row-major
}

// NewDEM returns a DEM with the given dimensions, initialised to zero
// elevation.
func NewDEM(rows, cols int, cellSize float64) (*DEM, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("dimensions %dx%d: %w", rows, cols, ErrBadGrid)
	}
	if cellSize <= 0 || math.IsNaN(cellSize) {
		return nil, fmt.Errorf("cell size %v: %w", cellSize, ErrBadGrid)
	}
	return &DEM{rows: rows, cols: cols, cellSize: cellSize, elev: make([]float64, rows*cols)}, nil
}

// Rows returns the number of grid rows.
func (d *DEM) Rows() int { return d.rows }

// Cols returns the number of grid columns.
func (d *DEM) Cols() int { return d.cols }

// CellAreaM2 returns the area of one grid cell in square metres.
func (d *DEM) CellAreaM2() float64 { return d.cellSize * d.cellSize }

func (d *DEM) idx(r, c int) int { return r*d.cols + c }

// InBounds reports whether (r,c) is a valid cell.
func (d *DEM) InBounds(r, c int) bool {
	return r >= 0 && r < d.rows && c >= 0 && c < d.cols
}

// Elevation returns the elevation at (r,c).
func (d *DEM) Elevation(r, c int) (float64, error) {
	if !d.InBounds(r, c) {
		return 0, fmt.Errorf("cell (%d,%d): %w", r, c, ErrOutOfBounds)
	}
	return d.elev[d.idx(r, c)], nil
}

// TerrainConfig parameterises the synthetic terrain generator.
type TerrainConfig struct {
	// Rows, Cols are the grid dimensions.
	Rows, Cols int
	// CellSizeM is the grid spacing in metres.
	CellSizeM float64
	// ReliefM is the elevation range from valley floor to ridge top.
	ReliefM float64
	// ValleySlope is the downstream gradient of the valley floor
	// (m per m); the valley drains towards row 0's centre column.
	ValleySlope float64
	// RoughnessM is the amplitude of superposed fractal noise.
	RoughnessM float64
	// Seed makes the terrain deterministic.
	Seed int64
}

// DefaultTerrain returns a config producing a ~10 km2 upland headwater
// catchment at 50 m resolution.
func DefaultTerrain() TerrainConfig {
	return TerrainConfig{
		Rows: 64, Cols: 64, CellSizeM: 50,
		ReliefM: 300, ValleySlope: 0.02, RoughnessM: 12, Seed: 1,
	}
}

// GenerateDEM builds a synthetic valley catchment: a V-shaped cross
// section rising away from a central channel, a downstream gradient
// towards the outlet at (0, cols/2), and multi-octave value noise for
// realistic hillslope roughness.
func GenerateDEM(cfg TerrainConfig) (*DEM, error) {
	d, err := NewDEM(cfg.Rows, cfg.Cols, cfg.CellSizeM)
	if err != nil {
		return nil, err
	}
	if cfg.ReliefM <= 0 || cfg.ValleySlope < 0 || cfg.RoughnessM < 0 {
		return nil, fmt.Errorf("relief %v slope %v roughness %v: %w",
			cfg.ReliefM, cfg.ValleySlope, cfg.RoughnessM, ErrBadGrid)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	noise := newValueNoise(rng, 8, 8)
	mid := float64(cfg.Cols-1) / 2
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			// V-shaped valley cross-section.
			cross := math.Abs(float64(c)-mid) / mid // 0 at channel, 1 at edge
			z := cfg.ReliefM * math.Pow(cross, 1.3)
			// Downstream gradient: outlet at row 0.
			z += float64(r) * cfg.CellSizeM * cfg.ValleySlope
			// Fractal roughness (3 octaves of bilinear value noise).
			z += cfg.RoughnessM * noise.at(float64(r)/float64(cfg.Rows), float64(c)/float64(cfg.Cols))
			d.elev[d.idx(r, c)] = z
		}
	}
	return d, nil
}

// valueNoise is multi-octave bilinear value noise on the unit square.
type valueNoise struct {
	grids [][]float64
	sizes []int
}

func newValueNoise(rng *rand.Rand, baseSize, octaves int) *valueNoise {
	n := &valueNoise{}
	size := baseSize
	for o := 0; o < octaves && size <= 256; o++ {
		g := make([]float64, (size+1)*(size+1))
		for i := range g {
			g[i] = rng.Float64()*2 - 1
		}
		n.grids = append(n.grids, g)
		n.sizes = append(n.sizes, size)
		size *= 2
	}
	return n
}

func (n *valueNoise) at(y, x float64) float64 {
	total, amp, norm := 0.0, 1.0, 0.0
	for o, g := range n.grids {
		s := n.sizes[o]
		fy, fx := y*float64(s), x*float64(s)
		iy, ix := int(fy), int(fx)
		if iy >= s {
			iy = s - 1
		}
		if ix >= s {
			ix = s - 1
		}
		ty, tx := fy-float64(iy), fx-float64(ix)
		w := s + 1
		v00 := g[iy*w+ix]
		v01 := g[iy*w+ix+1]
		v10 := g[(iy+1)*w+ix]
		v11 := g[(iy+1)*w+ix+1]
		v := v00*(1-ty)*(1-tx) + v01*(1-ty)*tx + v10*ty*(1-tx) + v11*ty*tx
		total += v * amp
		norm += amp
		amp *= 0.5
	}
	return total / norm
}

// FillPits removes depressions with the priority-flood algorithm (Barnes
// et al. 2014): cells are visited outward from the grid boundary in
// ascending spill elevation, and every visited cell is raised to at least
// its spill parent's elevation plus a small epsilon gradient. After
// filling, every interior cell has a strictly descending path to the grid
// edge. It returns the number of cells raised.
func (d *DEM) FillPits() int {
	const eps = 1e-3
	visited := make([]bool, len(d.elev))
	pq := &cellHeap{}
	push := func(r, c int, spill float64) {
		i := d.idx(r, c)
		if visited[i] {
			return
		}
		visited[i] = true
		heap.Push(pq, cellItem{idx: i, spill: spill})
	}
	for r := 0; r < d.rows; r++ {
		push(r, 0, d.elev[d.idx(r, 0)])
		push(r, d.cols-1, d.elev[d.idx(r, d.cols-1)])
	}
	for c := 0; c < d.cols; c++ {
		push(0, c, d.elev[d.idx(0, c)])
		push(d.rows-1, c, d.elev[d.idx(d.rows-1, c)])
	}
	raised := 0
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(cellItem)
		r, c := cur.idx/d.cols, cur.idx%d.cols
		for _, nb := range neighbours {
			nr, nc := r+nb.dr, c+nb.dc
			if !d.InBounds(nr, nc) {
				continue
			}
			ni := d.idx(nr, nc)
			if visited[ni] {
				continue
			}
			visited[ni] = true
			if d.elev[ni] <= cur.spill {
				d.elev[ni] = cur.spill + eps
				raised++
			}
			heap.Push(pq, cellItem{idx: ni, spill: d.elev[ni]})
		}
	}
	return raised
}

// cellItem is a priority-flood queue entry.
type cellItem struct {
	idx   int
	spill float64
}

// cellHeap is a min-heap on spill elevation.
type cellHeap []cellItem

func (h cellHeap) Len() int           { return len(h) }
func (h cellHeap) Less(i, j int) bool { return h[i].spill < h[j].spill }
func (h cellHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cellHeap) Push(x any)        { *h = append(*h, x.(cellItem)) }
func (h *cellHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

type offset struct{ dr, dc int }

// neighbours is the D8 neighbourhood.
var neighbours = []offset{
	{-1, -1}, {-1, 0}, {-1, 1},
	{0, -1}, {0, 1},
	{1, -1}, {1, 0}, {1, 1},
}
