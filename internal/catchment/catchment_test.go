package catchment

import (
	"sync"
	"testing"

	"evop/internal/geo"
)

func TestLEFTCatchments(t *testing.T) {
	reg := LEFTCatchments()
	all := reg.All()
	if len(all) != 3 {
		t.Fatalf("catchments = %d, want 3", len(all))
	}
	wantIDs := []string{"morland", "tarland", "machynlleth"}
	for i, id := range wantIDs {
		if all[i].ID != id {
			t.Fatalf("catchment %d = %q, want %q (insertion order)", i, all[i].ID, id)
		}
		c, ok := reg.Get(id)
		if !ok {
			t.Fatalf("Get(%q) missing", id)
		}
		if err := c.Outlet.Validate(); err != nil {
			t.Fatalf("%s outlet invalid: %v", id, err)
		}
		if c.AreaKM2 <= 0 {
			t.Fatalf("%s area = %v", id, c.AreaKM2)
		}
	}
	if _, ok := reg.Get("thames"); ok {
		t.Fatal("Get(unknown) = ok")
	}
}

func TestCatchmentDerivedProducts(t *testing.T) {
	c, _ := LEFTCatchments().Get("morland")
	dem, err := c.DEM()
	if err != nil {
		t.Fatalf("DEM: %v", err)
	}
	if dem.Rows() != c.Terrain.Rows {
		t.Fatalf("DEM rows = %d", dem.Rows())
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		t.Fatalf("TopoIndexDistribution: %v", err)
	}
	if err := ti.Validate(); err != nil {
		t.Fatalf("TI invalid: %v", err)
	}
}

func TestCatchmentDeriveConcurrent(t *testing.T) {
	c, _ := LEFTCatchments().Get("tarland")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.TopoIndexDistribution(); err != nil {
				t.Errorf("TopoIndexDistribution: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestCatchmentDeriveError(t *testing.T) {
	c := &Catchment{ID: "broken", Terrain: TerrainConfig{Rows: 1, Cols: 1, CellSizeM: 50}}
	if _, err := c.DEM(); err == nil {
		t.Fatal("bad terrain: want error")
	}
	if _, err := c.TopoIndexDistribution(); err == nil {
		t.Fatal("error should be sticky")
	}
}

func TestOutlineContainsOutlet(t *testing.T) {
	for _, c := range LEFTCatchments().All() {
		poly, err := c.Outline()
		if err != nil {
			t.Fatalf("%s Outline: %v", c.ID, err)
		}
		if !poly.Contains(c.Outlet) {
			t.Fatalf("%s outline does not contain its outlet", c.ID)
		}
	}
}

func TestRegistryAddErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Add(&Catchment{}); err == nil {
		t.Fatal("empty ID: want error")
	}
	c := &Catchment{ID: "x", Outlet: geo.Point{Lat: 54, Lon: -2}}
	if err := r.Add(c); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := r.Add(&Catchment{ID: "x"}); err == nil {
		t.Fatal("duplicate ID: want error")
	}
}
