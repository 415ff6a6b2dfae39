// Quickstart: assemble the observatory, run TOPMODEL on Morland under a
// design storm, and print the flood hydrograph around the event — the
// minimal end-to-end use of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"evop"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal("quickstart: ", err)
	}
}

func run() error {
	clk := evop.NewSimulatedClock(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC))
	cfg := evop.DefaultConfig(clk)
	cfg.ForcingDays = 30
	obs, err := evop.New(cfg)
	if err != nil {
		return fmt.Errorf("assembling observatory: %w", err)
	}
	obs.Start()
	defer obs.Stop()

	storm := &evop.DesignStorm{TotalDepthMM: 60, Duration: 6 * time.Hour, PeakFraction: 0.4}
	res, _, err := obs.RunModelCachedContext(context.Background(), evop.RunRequest{
		CatchmentID:  "morland",
		Model:        "topmodel",
		ScenarioID:   "baseline",
		Storm:        storm,
		StormAtHours: 15 * 24,
	})
	if err != nil {
		return fmt.Errorf("running model: %w", err)
	}

	fmt.Printf("TOPMODEL on Morland, 60mm/6h storm at day 15\n")
	fmt.Printf("  peak flow : %.3f mm/h (%.2f m3/s) at %s\n",
		res.PeakMM, res.DischargeM3S.Summarise().Max, res.PeakAt.Format("2006-01-02 15:04"))
	fmt.Printf("  volume    : %.1f mm over %d days (runoff ratio %.2f)\n\n",
		res.VolumeMM, cfg.ForcingDays, res.RunoffRatio)

	// ASCII hydrograph for the 48 hours around the storm.
	stormTime := cfg.Start.Add(15 * 24 * time.Hour)
	window, err := res.Discharge.Slice(stormTime.Add(-6*time.Hour), stormTime.Add(42*time.Hour))
	if err != nil {
		return fmt.Errorf("slicing hydrograph: %w", err)
	}
	max := window.Summarise().Max
	fmt.Println("hydrograph (each # is flow, one row per 2 hours):")
	for i := 0; i < window.Len(); i += 2 {
		v := window.At(i)
		bar := int(v / max * 50)
		fmt.Printf("  %s %6.3f %s\n",
			window.TimeAt(i).Format("02 15:04"), v, strings.Repeat("#", bar))
	}
	return nil
}
