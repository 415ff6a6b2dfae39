package quality_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/hydro/lowflow"
	"evop/internal/hydro/pet"
	"evop/internal/hydro/quality"
	"evop/internal/hydro/topmodel"
	"evop/internal/scenario"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

// digest hashes values in order as little-endian 64-bit words.
type digest struct{ hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) u(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	d.Write(buf[:])
}

func (d digest) f(v float64) { d.u(math.Float64bits(v)) }

func (d digest) series(q *timeseries.Series) {
	d.u(uint64(q.Start().UnixNano()))
	d.u(uint64(q.Step()))
	d.u(uint64(q.Len()))
	for _, v := range q.Raw() {
		d.f(v)
	}
}

func (d digest) String() string { return hex.EncodeToString(d.Sum(nil)) }

// baseflowGoldenLines runs TOPMODEL on each LEFT catchment under each
// land-use scenario, on the portal's 120-day forcing, and hashes every
// output of the three baseflow readers: Baseflow at two filter
// settings, Export's loads and series, and lowflow.Analyse's report.
func baseflowGoldenLines(t *testing.T) []string {
	t.Helper()
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	const hours = 120 * 24
	var lines []string
	for _, c := range catchment.LEFTCatchments().All() {
		gen, err := weather.NewGenerator(weather.UKUplandClimate(), c.ClimateSeed)
		if err != nil {
			t.Fatal(err)
		}
		rain, err := gen.Rainfall(start, time.Hour, hours)
		if err != nil {
			t.Fatal(err)
		}
		temp, err := gen.Temperature(start, time.Hour, hours)
		if err != nil {
			t.Fatal(err)
		}
		petSeries, err := pet.Oudin(temp, c.Outlet.Lat)
		if err != nil {
			t.Fatal(err)
		}
		forcing := hydro.Forcing{Rain: rain, PET: petSeries}
		ti, err := c.TopoIndexDistribution()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scenario.All() {
			m, err := topmodel.New(sc.ApplyTOPMODEL(topmodel.DefaultParams()), ti)
			if err != nil {
				t.Fatal(err)
			}
			q, err := m.Run(forcing)
			if err != nil {
				t.Fatal(err)
			}
			line := func(what string, d digest) {
				lines = append(lines, fmt.Sprintf("%s %s %s %s", c.ID, sc.ID, what, d))
			}
			for _, f := range []struct {
				alpha  float64
				passes int
			}{{0.95, 3}, {0.9, 2}} {
				base, err := quality.Baseflow(q, f.alpha, f.passes)
				if err != nil {
					t.Fatal(err)
				}
				d := newDigest()
				d.series(base)
				line(fmt.Sprintf("baseflow/%v/%d", f.alpha, f.passes), d)
			}

			loads, err := quality.Export(q, c.AreaKM2, sc.ApplyQuality(quality.DefaultParams()))
			if err != nil {
				t.Fatal(err)
			}
			d := newDigest()
			d.f(loads.SedimentTonnes)
			d.f(loads.PhosphorusKg)
			d.f(loads.NitrateKg)
			d.f(loads.QuickflowFraction)
			d.series(loads.SedimentConc)
			d.series(loads.Baseflow)
			line("export", d)

			low, err := lowflow.Analyse(q)
			if err != nil {
				t.Fatal(err)
			}
			d = newDigest()
			d.f(low.Q95)
			d.f(low.Q70)
			d.f(low.BFI)
			d.u(uint64(len(low.Droughts)))
			for _, dr := range low.Droughts {
				d.u(uint64(dr.Start.UnixNano()))
				d.u(uint64(dr.Duration))
				d.f(dr.DeficitMM)
			}
			d.u(uint64(low.LongestDrought))
			d.f(low.TotalDeficitMM)
			line("lowflow", d)
		}
	}
	return lines
}

// TestBaseflowGolden pins Baseflow, Export and lowflow.Analyse bit for
// bit on the TOPMODEL runs of the three LEFT catchments under the four
// scenarios. The digests in testdata/baseflow_golden.txt were recorded
// before the filter moved into the series it returns.
func TestBaseflowGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/baseflow_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	got := baseflowGoldenLines(t)
	if len(got) != len(wantLines) {
		t.Fatalf("%d digests, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("digest %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}
