// Workflow: compose a reproducible scientific experiment as a DAG — the
// capability the paper names as future work (Section VIII): "Workflows
// allow 'advanced' users to create complex experiments that can be easily
// tweaked and replayed, offering reproducibility and traceability."
//
// The DAG: weather generation feeds PET computation and three parallel
// scenario model runs, which feed a comparison node. The example executes
// it, prints the provenance trace, then replays it and verifies the
// results are bit-identical.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"evop/internal/catchment"
	"evop/internal/hydro"
	"evop/internal/hydro/pet"
	"evop/internal/hydro/topmodel"
	"evop/internal/scenario"
	"evop/internal/sched"
	"evop/internal/timeseries"
	"evop/internal/weather"
	"evop/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal("workflow: ", err)
	}
}

func run() error {
	c, ok := catchment.LEFTCatchments().Get("tarland")
	if !ok {
		return fmt.Errorf("tarland catchment missing")
	}
	ti, err := c.TopoIndexDistribution()
	if err != nil {
		return fmt.Errorf("deriving terrain: %w", err)
	}
	start := time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC)

	pool, err := sched.New(sched.Config{})
	if err != nil {
		return err
	}
	defer pool.Close()
	w := workflow.New[any]("tarland-scenario-study", pool)
	nodes := []workflow.Node[any]{
		{ID: "rain", Run: func(context.Context, map[string]any) (any, error) {
			gen, err := weather.NewGenerator(weather.UKUplandClimate(), c.ClimateSeed)
			if err != nil {
				return nil, err
			}
			return gen.Rainfall(start, time.Hour, 20*24)
		}},
		{ID: "temperature", Run: func(context.Context, map[string]any) (any, error) {
			gen, err := weather.NewGenerator(weather.UKUplandClimate(), c.ClimateSeed+1)
			if err != nil {
				return nil, err
			}
			return gen.Temperature(start, time.Hour, 20*24)
		}},
		{ID: "pet", Deps: []string{"temperature"}, Run: func(_ context.Context, in map[string]any) (any, error) {
			temp, ok := in["temperature"].(*timeseries.Series)
			if !ok {
				return nil, fmt.Errorf("temperature input type %T", in["temperature"])
			}
			return pet.Oudin(temp, c.Outlet.Lat)
		}},
	}
	for _, scID := range []string{scenario.Baseline, scenario.Afforestation, scenario.Compaction} {
		nodes = append(nodes, workflow.Node[any]{
			ID: "run-" + scID, Deps: []string{"rain", "pet"},
			Run: func(_ context.Context, in map[string]any) (any, error) {
				rain := in["rain"].(*timeseries.Series)
				petS := in["pet"].(*timeseries.Series)
				sc, err := scenario.Get(scID)
				if err != nil {
					return nil, err
				}
				m, err := topmodel.New(sc.ApplyTOPMODEL(topmodel.DefaultParams()), ti)
				if err != nil {
					return nil, err
				}
				return m.Run(hydro.Forcing{Rain: rain, PET: petS})
			},
		})
	}
	nodes = append(nodes, workflow.Node[any]{
		ID:   "compare",
		Deps: []string{"run-baseline", "run-afforestation", "run-compaction"},
		Run: func(_ context.Context, in map[string]any) (any, error) {
			peaks := map[string]float64{}
			for k, v := range in {
				peaks[k] = v.(*timeseries.Series).Summarise().Max
			}
			return peaks, nil
		},
	})
	for _, n := range nodes {
		if err := w.Add(n); err != nil {
			return fmt.Errorf("adding node %s: %w", n.ID, err)
		}
	}

	startT := time.Now()
	res, err := w.Execute(context.Background())
	if err != nil {
		return fmt.Errorf("executing workflow: %w", err)
	}
	fmt.Printf("workflow %q: %d nodes in %d parallel waves, %v wall time\n\n",
		w.Name(), len(res.Trace), res.Waves, time.Since(startT).Round(time.Millisecond))

	fmt.Println("provenance trace (wave, node, inputs, output fingerprint):")
	for _, e := range res.Trace {
		fmt.Printf("  wave %d  %-18s deps=%-35v fp=%s\n", e.Wave, e.Node, e.Inputs, e.Fingerprint)
	}
	fmt.Println()

	peaks := res.Outputs["compare"].(map[string]float64)
	fmt.Println("scenario peak flows (mm/h):")
	for _, k := range []string{"run-baseline", "run-afforestation", "run-compaction"} {
		fmt.Printf("  %-20s %.3f\n", k, peaks[k])
	}
	fmt.Println()

	if _, err := w.Replay(context.Background(), res); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	fmt.Println("replay: all node fingerprints identical — experiment is reproducible")
	return nil
}
