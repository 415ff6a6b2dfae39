// Sensors: live environmental data the way the paper's stakeholders saw
// it — a simulated in-situ network in the Tarland catchment streamed over
// the broker-style live feed, queried through the OGC SOS standard
// interface, and fused into the Fig. 5 multimodal view (temperature +
// turbidity + the webcam frame taken roughly at the same time).
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"evop/internal/clock"
	"evop/internal/geo"
	"evop/internal/ogc/sos"
	"evop/internal/push"
	"evop/internal/sensor"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatal("sensors: ", err)
	}
}

func run() error {
	epoch := time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(epoch)

	network, err := sensor.NewNetwork(clk, nil)
	if err != nil {
		return fmt.Errorf("building network: %w", err)
	}
	deployment, err := sensor.LEFTDeployment(clk, "tarland",
		geo.Point{Lat: 57.1232, Lon: -2.8610}, 202, epoch)
	if err != nil {
		return fmt.Errorf("deploying sensors: %w", err)
	}
	for _, s := range deployment {
		if err := network.Add(s); err != nil {
			return fmt.Errorf("adding %s: %w", s.ID, err)
		}
	}

	// Subscribe to the live feed before starting, then play 6 hours.
	feed, err := network.SubscribeTopics(64, push.TopicAllSensors)
	if err != nil {
		return fmt.Errorf("subscribing to the live feed: %w", err)
	}
	defer feed.Cancel()
	network.Start()
	defer network.Stop()
	clk.Advance(6 * time.Hour)

	fmt.Println("live feed (first 12 readings):")
	for i := 0; i < 12; i++ {
		select {
		case r := <-feed.C():
			fmt.Printf("  %s  %-18s %-16s %8.2f %s\n",
				r.Time.Format("15:04"), r.SensorID, r.Kind, r.Value, r.Kind.Unit())
		default:
			return fmt.Errorf("live feed dried up after %d readings", i)
		}
	}
	fmt.Println()

	// Query the same data through the OGC SOS standard interface.
	svc, err := sos.NewService("Tarland SOS", network, clk)
	if err != nil {
		return fmt.Errorf("building SOS: %w", err)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "?service=SOS&request=GetObservation&procedure=tarland-rain-1")
	if err != nil {
		return fmt.Errorf("SOS GetObservation: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	count := strings.Count(string(body), "<om:samplingTime>")
	fmt.Printf("SOS GetObservation(tarland-rain-1): %d observations in the last 24h window\n", count)
	preview := string(body)
	if idx := strings.Index(preview, "<om:member>"); idx > 0 {
		end := idx + 400
		if end > len(preview) {
			end = len(preview)
		}
		fmt.Println("first observation member (O&M XML):")
		for _, line := range strings.Split(preview[idx:end], "\n") {
			fmt.Println("  " + line)
		}
	}
	fmt.Println()

	// The Fig. 5 multimodal widget: probes + webcam fused at an instant.
	at := epoch.Add(3*time.Hour + 40*time.Minute)
	fused, err := network.Fuse("tarland-temp-1", "tarland-turb-1", "tarland-cam-1", at)
	if err != nil {
		return fmt.Errorf("fusing: %w", err)
	}
	fmt.Printf("multimodal view at %s:\n", at.Format("15:04"))
	fmt.Printf("  water temperature : %.1f degC\n", fused.Temperature)
	fmt.Printf("  turbidity         : %.1f NTU\n", fused.Turbidity)
	fmt.Printf("  webcam frame      : %d bytes taken at %s (skew %v)\n",
		len(fused.Frame.Content), fused.Frame.Time.Format("15:04"), fused.MaxSkew)
	return nil
}
