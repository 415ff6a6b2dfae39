// Uncertainty: Monte Carlo calibration of TOPMODEL followed by GLUE
// uncertainty bounds — the presentation stakeholders explicitly requested
// in the paper's evaluation workshops (Section VI), and the
// embarrassingly-parallel workload the paper's cloud architecture was
// designed around.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/hydro/calibrate"
	"evop/internal/hydro/topmodel"
	"evop/internal/timeseries"
	"evop/internal/weather"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal("uncertainty: ", err)
	}
}

func run() error {
	// Catchment terrain and synthetic "observed" record.
	c, ok := catchment.LEFTCatchments().Get("morland")
	if !ok {
		return fmt.Errorf("morland catchment missing")
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		return fmt.Errorf("deriving terrain: %w", err)
	}
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)
	gen, err := weather.NewGenerator(weather.UKUplandClimate(), c.ClimateSeed)
	if err != nil {
		return err
	}
	rain, err := gen.Rainfall(start, time.Hour, 30*24)
	if err != nil {
		return err
	}
	petSeries, err := timeseries.Zeros(start, time.Hour, rain.Len())
	if err != nil {
		return err
	}
	for i := 0; i < petSeries.Len(); i++ {
		petSeries.SetAt(i, 0.08)
	}
	forcing := hydro.Forcing{Rain: rain, PET: petSeries}

	truthParams := topmodel.DefaultParams()
	truthParams.M = 24
	truthParams.LnTe = 5.6
	truth, err := topmodel.New(truthParams, ti)
	if err != nil {
		return err
	}
	observed, err := truth.Run(forcing)
	if err != nil {
		return err
	}
	fmt.Println("synthetic 'observed' discharge generated with M=24, LnTe=5.6")

	// Monte Carlo calibration over (M, LnTe, SRMax), keeping behavioural
	// simulations for GLUE.
	cfg := calibrate.MCConfig{
		Factory: func(vals []float64) (hydro.Model, error) {
			p := topmodel.DefaultParams()
			p.M, p.LnTe, p.SRMax = vals[0], vals[1], vals[2]
			return topmodel.New(p, ti)
		},
		Ranges: []calibrate.Range{
			{Name: "M", Lo: 5, Hi: 100},
			{Name: "LnTe", Lo: 2, Hi: 8},
			{Name: "SRMax", Lo: 10, Hi: 150},
		},
		Forcing:       forcing,
		Observed:      observed,
		Objective:     calibrate.NSE,
		N:             2000,
		Seed:          42,
		KeepSimsAbove: 0.6,
	}
	startT := time.Now()
	res, err := calibrate.MonteCarlo(context.Background(), cfg)
	if err != nil {
		return fmt.Errorf("calibrating: %w", err)
	}
	fmt.Printf("Monte Carlo: %d runs in %v (parallel across cores)\n",
		cfg.N, time.Since(startT).Round(time.Millisecond))
	fmt.Printf("  best NSE   : %.4f\n", res.Best.Score)
	fmt.Printf("  best M     : %.1f  (truth 24)\n", res.Best.Values[0])
	fmt.Printf("  best LnTe  : %.2f  (truth 5.6)\n", res.Best.Values[1])
	fmt.Printf("  best SRMax : %.1f\n\n", res.Best.Values[2])

	behavioural := res.Behavioural(0.6)
	fmt.Printf("behavioural runs (NSE >= 0.6): %d of %d\n", len(behavioural), cfg.N)

	bounds, err := calibrate.GLUE(behavioural, 0.05, 0.95)
	if err != nil {
		return fmt.Errorf("computing GLUE bounds: %w", err)
	}
	coverage, err := bounds.ContainsFraction(observed)
	if err != nil {
		return err
	}
	fmt.Printf("GLUE 5-95%% bounds cover %.0f%% of the observed record\n\n", coverage*100)

	// Render the envelope around the wettest day.
	st := observed.Summarise()
	peakAt := observed.TimeAt(st.ArgMax)
	win := func(s *timeseries.Series) *timeseries.Series {
		sl, err := s.Slice(peakAt.Add(-12*time.Hour), peakAt.Add(12*time.Hour))
		if err != nil {
			return s
		}
		return sl
	}
	lo, md, hi, ob := win(bounds.Lower), win(bounds.Median), win(bounds.Upper), win(observed)
	fmt.Println("envelope around the largest event (5% / median / 95% / observed, mm/h):")
	for i := 0; i < ob.Len(); i += 2 {
		mark := " "
		if ob.At(i) < lo.At(i) || ob.At(i) > hi.At(i) {
			mark = "!"
		}
		fmt.Printf("  %s  %6.3f  %6.3f  %6.3f  %6.3f %s\n",
			ob.TimeAt(i).Format("02 15:04"), lo.At(i), md.At(i), hi.At(i), ob.At(i), mark)
	}
	if math.IsNaN(coverage) {
		return fmt.Errorf("coverage undefined")
	}
	fmt.Println(strings.Repeat("-", 56))
	fmt.Println("('!' marks observed samples outside the 5-95% envelope)")
	return nil
}
