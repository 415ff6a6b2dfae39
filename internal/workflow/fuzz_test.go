package workflow

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"evop/internal/ogc/wps"
	"evop/internal/timeseries"
)

// rampProcess returns an n-point series (n ≤ 1000) by reference beside
// a literal, as a model process returns a cached hydrograph.
type rampProcess struct{}

func (rampProcess) Identifier() string       { return "ramp" }
func (rampProcess) Title() string            { return "Ramp" }
func (rampProcess) Abstract() string         { return "" }
func (rampProcess) Inputs() []wps.ParamDesc  { return nil }
func (rampProcess) Outputs() []wps.ParamDesc { return nil }
func (rampProcess) Execute(_ context.Context, in map[string]wps.Value) (map[string]wps.Value, error) {
	n, err := strconv.Atoi(in["n"].String())
	if err != nil || n < 0 || n > 1000 {
		return nil, fmt.Errorf("ramp: n %q", in["n"].String())
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	s := timeseries.MustNew(time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC), time.Hour, vals)
	return map[string]wps.Value{"hydrograph": wps.SeriesValue(s), "n": wps.Literal(strconv.Itoa(n))}, nil
}

// statsProcess is a hydrostats stand-in: it reads a series input
// directly and parses a literal one as Flot text.
type statsProcess struct{}

func (statsProcess) Identifier() string       { return "hydrostats" }
func (statsProcess) Title() string            { return "Stats" }
func (statsProcess) Abstract() string         { return "" }
func (statsProcess) Inputs() []wps.ParamDesc  { return nil }
func (statsProcess) Outputs() []wps.ParamDesc { return nil }
func (statsProcess) Execute(_ context.Context, in map[string]wps.Value) (map[string]wps.Value, error) {
	var sum float64
	n := 0
	if s := in["hydrograph"].Series(); s != nil {
		for _, v := range s.Raw() {
			sum += v
		}
		n = s.Len()
	} else {
		ir, err := timeseries.ParseFlotJSON([]byte(in["hydrograph"].String()))
		if err != nil {
			return nil, err
		}
		for i := 0; i < ir.Len(); i++ {
			sum += ir.At(i).Value
		}
		n = ir.Len()
	}
	if n == 0 {
		return nil, errors.New("hydrostats: empty hydrograph")
	}
	return map[string]wps.Value{"volumeMm": wps.Literal(strconv.FormatFloat(sum, 'g', -1, 64))}, nil
}

// fuzzService is testService's arithmetic plus the series pair.
func fuzzService(t *testing.T) *Service {
	s := testService(t)
	for _, p := range []wps.Process{rampProcess{}, statsProcess{}} {
		if err := s.RegisterProcess(p); err != nil {
			t.Fatalf("RegisterProcess: %v", err)
		}
	}
	return s
}

func serve(s *Service, method, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec
}

// textOutputs is outs as the map[string]string outputs were before
// they were typed: each series as its FlotJSON text.
func textOutputs(t *testing.T, outs map[string]wps.Value) map[string]string {
	if outs == nil {
		return nil
	}
	text := make(map[string]string, len(outs))
	for k, v := range outs {
		text[k] = v.String()
		if s := v.Series(); s != nil {
			flot, err := s.FlotJSON()
			if err != nil {
				t.Fatalf("FlotJSON: %v", err)
			}
			text[k] = string(flot)
		}
	}
	return text
}

// FuzzWorkflowDefinition POSTs raw definitions to /workflows. No body
// answers 5xx or panics; every 200 run reads back byte-identical from
// GET /workflows/<id>, replays with 200, and fingerprints each node's
// outputs as the same outputs in text would.
func FuzzWorkflowDefinition(f *testing.F) {
	f.Add(`{"name":"s","nodes":[{"id":"run","process":"ramp","inputs":{"n":"48"}},` +
		`{"id":"stats","process":"hydrostats","inputs":{"hydrograph":"${run.hydrograph}"}}]}`)
	f.Add(`{"name":"lit","nodes":[{"id":"st","process":"hydrostats","inputs":{"hydrograph":"[[0,1.5],[3600000,null]]"}}]}`)
	f.Add(`{"name":"arith","nodes":[{"id":"x","process":"const","inputs":{"value":"5"}},` +
		`{"id":"x2","process":"double","inputs":{"value":"${x.value}"}},` +
		`{"id":"t","process":"add","inputs":{"a":"${x2.value}","b":"${x.value}"}}]}`)
	f.Add(`{"name":"c","nodes":[{"id":"a","process":"const","after":["b"]},{"id":"b","process":"const","after":["a"]}]}`)
	f.Add(`{"name":"m","nodes":[{"id":"r","process":"ramp","inputs":{"n":"0"}},` +
		`{"id":"s","process":"hydrostats","inputs":{"hydrograph":"${r.missing}"}},` +
		`{"id":"d","process":"double","inputs":{"value":"${r.hydrograph}"}}]}`)
	f.Add(`{"name":"q","nodes":[{"id":"<\"'","process":"const","inputs":{"value":" �\u0000]]>"}}]}`)
	f.Add(`{"name":"x","nodes":null}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, body string) {
		s := fuzzService(t)
		rec := serve(s, http.MethodPost, "/workflows", body)
		if rec.Code >= 500 {
			t.Fatalf("POST answered %d: %s", rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		var run struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
			t.Fatalf("run JSON: %v\n%s", err, rec.Body)
		}
		got := serve(s, http.MethodGet, "/workflows/"+run.ID, "")
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("GET /workflows/%s = %d\n%s\nwant the POSTed run\n%s", run.ID, got.Code, got.Body, rec.Body)
		}
		for id, outs := range s.runs[run.ID].Outputs {
			if fp, want := Fingerprint(outs), Fingerprint(textOutputs(t, outs)); fp != want {
				t.Fatalf("node %s fingerprint %s, want %s as text", id, fp, want)
			}
		}
		if replay := serve(s, http.MethodPost, "/workflows/"+run.ID+"/replay", ""); replay.Code != http.StatusOK {
			t.Fatalf("replay = %d %s", replay.Code, replay.Body)
		}
	})
}

// TestFingerprintTypedOutputs pins Fingerprint of typed outputs to the
// %#v hash of the same outputs as text, quoting edge cases and a
// non-finite series included.
func TestFingerprintTypedOutputs(t *testing.T) {
	s := timeseries.MustNew(time.UnixMilli(-1500).UTC(), time.Millisecond/3,
		[]float64{1.5, math.NaN(), math.Inf(-1), math.Copysign(0, -1), 1e-300})
	for _, outs := range []map[string]wps.Value{
		nil,
		{},
		{"hydrograph": wps.SeriesValue(s)},
		{"hydrograph": wps.SeriesValue(s), "peakMm": wps.Literal("7.1"), "": wps.Literal("")},
		{"b\"\\\n": wps.Literal("\xff\x00 é"), "a": wps.SeriesValue(s), "z": wps.SeriesValue(timeseries.MustNew(time.Time{}, time.Hour, nil))},
	} {
		if got, want := Fingerprint(outs), Fingerprint(textOutputs(t, outs)); got != want {
			t.Errorf("Fingerprint(%v) = %s, want %s", outs, got, want)
		}
	}
}
