package evop

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func TestPublicQuickstartPath(t *testing.T) {
	clk := NewSimulatedClock(epoch)
	cfg := DefaultConfig(clk)
	cfg.ForcingDays = 20
	obs, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	obs.Start()
	defer obs.Stop()

	res, _, err := obs.RunModelCachedContext(context.Background(), RunRequest{
		CatchmentID: "morland", Model: "topmodel", ScenarioID: "compaction",
	})
	if err != nil {
		t.Fatalf("RunModelCachedContext: %v", err)
	}
	if res.PeakMM <= 0 || res.Discharge.Len() == 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestPublicPortalPath(t *testing.T) {
	clk := NewSimulatedClock(epoch)
	cfg := DefaultConfig(clk)
	cfg.ForcingDays = 20
	obs, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	obs.Start()
	defer obs.Stop()
	clk.Advance(time.Hour)

	p, err := NewPortal(obs)
	if err != nil {
		t.Fatalf("NewPortal: %v", err)
	}
	srv := httptest.NewServer(p)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

func TestPublicHelpers(t *testing.T) {
	if got := len(Scenarios()); got != 4 {
		t.Fatalf("Scenarios = %d", got)
	}
	if err := DefaultTOPMODELParams().Validate(); err != nil {
		t.Fatalf("default params: %v", err)
	}
	real := NewRealClock()
	if real.Now().IsZero() {
		t.Fatal("real clock returned zero time")
	}
	storm := DesignStorm{TotalDepthMM: 10, Duration: time.Hour, PeakFraction: 0.5}
	if err := storm.Validate(); err != nil {
		t.Fatalf("storm: %v", err)
	}
	if !strings.HasPrefix(Scenarios()[0].ID, "base") {
		t.Fatalf("first scenario = %s", Scenarios()[0].ID)
	}
}
