package catchment

import (
	"fmt"
	"sync"

	"evop/internal/geo"
)

// Catchment describes one study catchment: identity, geography and the
// derived terrain products the models consume.
type Catchment struct {
	// ID is the short identifier used in URLs ("morland").
	ID string `json:"id"`
	// Name is the display name ("Morland, Eden catchment").
	Name string `json:"name"`
	// Region is the administrative region ("Cumbria, England").
	Region string `json:"region"`
	// Outlet is the catchment outlet location.
	Outlet geo.Point `json:"outlet"`
	// AreaKM2 is the catchment area.
	AreaKM2 float64 `json:"areaKm2"`
	// ClimateSeed seeds the weather generator so each catchment has a
	// distinct but reproducible climate realisation.
	ClimateSeed int64 `json:"climateSeed"`
	// Terrain parameterises the synthetic DEM.
	Terrain TerrainConfig `json:"terrain"`

	once sync.Once
	dem  *DEM
	ti   *TIDistribution
	err  error
}

// derive computes the DEM, flow field and TI distribution once.
func (c *Catchment) derive() {
	c.once.Do(func() {
		dem, err := GenerateDEM(c.Terrain)
		if err != nil {
			c.err = fmt.Errorf("generating DEM for %s: %w", c.ID, err)
			return
		}
		dem.FillPits()
		flow, err := ComputeFlow(dem)
		if err != nil {
			c.err = fmt.Errorf("routing flow for %s: %w", c.ID, err)
			return
		}
		ti, err := flow.TIDistribution(30)
		if err != nil {
			c.err = fmt.Errorf("binning TI for %s: %w", c.ID, err)
			return
		}
		c.dem, c.ti = dem, ti
	})
}

// DEM returns the catchment's (synthetic) elevation model.
func (c *Catchment) DEM() (*DEM, error) {
	c.derive()
	return c.dem, c.err
}

// TopoIndexDistribution returns the catchment's binned ln(a/tanB)
// distribution, the form TOPMODEL consumes.
func (c *Catchment) TopoIndexDistribution() (*TIDistribution, error) {
	c.derive()
	return c.ti, c.err
}

// Outline returns a rectangular outline polygon approximating the
// catchment boundary on the map (sufficient for the portal's map layer).
func (c *Catchment) Outline() (*geo.Polygon, error) {
	// Half-extent in degrees from the area, roughly: 1 deg lat ~ 111 km.
	halfKM := 0.5 * sqrtKM(c.AreaKM2)
	dLat := halfKM / 111
	dLon := halfKM / 70 // at UK latitudes 1 deg lon ~ 70 km
	return geo.NewPolygon([]geo.Point{
		{Lat: c.Outlet.Lat - dLat, Lon: c.Outlet.Lon - dLon},
		{Lat: c.Outlet.Lat - dLat, Lon: c.Outlet.Lon + dLon},
		{Lat: c.Outlet.Lat + dLat, Lon: c.Outlet.Lon + dLon},
		{Lat: c.Outlet.Lat + dLat, Lon: c.Outlet.Lon - dLon},
	})
}

func sqrtKM(a float64) float64 {
	if a <= 0 {
		return 1
	}
	x := a
	for i := 0; i < 40; i++ {
		x = 0.5 * (x + a/x)
	}
	return x
}

// Registry holds the known catchments. It only grows: there is no
// removal, so Len is an exact generation of its contents. A registered
// *Catchment is shared with every reader and must not be mutated after
// Add; readers (the portal's encoded map layers among them) rely on it.
type Registry struct {
	mu   sync.RWMutex
	byID map[string]*Catchment
	ids  []string // insertion order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*Catchment)}
}

// Add registers a catchment. It returns an error for a duplicate or empty
// ID.
func (r *Registry) Add(c *Catchment) error {
	if c.ID == "" {
		return fmt.Errorf("catchment: empty ID: %w", ErrBadGrid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byID[c.ID]; ok {
		return fmt.Errorf("catchment: duplicate ID %q", c.ID)
	}
	r.byID[c.ID] = c
	r.ids = append(r.ids, c.ID)
	return nil
}

// Get returns the catchment with the given ID.
func (r *Registry) Get(id string) (*Catchment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byID[id]
	return c, ok
}

// All returns the registered catchments in insertion order.
func (r *Registry) All() []*Catchment {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Catchment, 0, len(r.ids))
	for _, id := range r.ids {
		out = append(out, r.byID[id])
	}
	return out
}

// Len returns the number of registered catchments.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
}

// LEFTCatchments returns a registry pre-populated with the three rural
// catchments of the Local EVOp Flooding Tool exemplar (Section V-B):
// Morland in Cumbria (England), Tarland in Aberdeenshire (Scotland) and
// Machynlleth in Powys (Wales). Coordinates are approximate village
// locations; areas are representative headwater scales.
func LEFTCatchments() *Registry {
	r := NewRegistry()
	add := func(c *Catchment) {
		// IDs are distinct literals below; Add cannot fail.
		if err := r.Add(c); err != nil {
			panic(err)
		}
	}
	add(&Catchment{
		ID:          "morland",
		Name:        "Morland, Eden catchment",
		Region:      "Cumbria, England",
		Outlet:      geo.Point{Lat: 54.5963, Lon: -2.6434},
		AreaKM2:     12.9,
		ClimateSeed: 101,
		Terrain: TerrainConfig{
			Rows: 72, Cols: 72, CellSizeM: 50,
			ReliefM: 260, ValleySlope: 0.018, RoughnessM: 10, Seed: 101,
		},
	})
	add(&Catchment{
		ID:          "tarland",
		Name:        "Tarland Burn",
		Region:      "Aberdeenshire, Scotland",
		Outlet:      geo.Point{Lat: 57.1232, Lon: -2.8610},
		AreaKM2:     25.0,
		ClimateSeed: 202,
		Terrain: TerrainConfig{
			Rows: 100, Cols: 100, CellSizeM: 50,
			ReliefM: 320, ValleySlope: 0.014, RoughnessM: 14, Seed: 202,
		},
	})
	add(&Catchment{
		ID:          "machynlleth",
		Name:        "Dyfi at Machynlleth",
		Region:      "Powys, Wales",
		Outlet:      geo.Point{Lat: 52.5930, Lon: -3.8510},
		AreaKM2:     18.4,
		ClimateSeed: 303,
		Terrain: TerrainConfig{
			Rows: 86, Cols: 86, CellSizeM: 50,
			ReliefM: 420, ValleySlope: 0.025, RoughnessM: 18, Seed: 303,
		},
	})
	return r
}
