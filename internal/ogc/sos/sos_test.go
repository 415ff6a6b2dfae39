package sos

import (
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/geo"
	"evop/internal/sensor"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func testService(t *testing.T) (*httptest.Server, *clock.Simulated) {
	t.Helper()
	clk := clock.NewSimulated(epoch)
	n, err := sensor.NewNetwork(clk, nil)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	sensors, err := sensor.LEFTDeployment(clk, "morland", geo.Point{Lat: 54.596, Lon: -2.643}, 101, epoch)
	if err != nil {
		t.Fatalf("LEFTDeployment: %v", err)
	}
	for _, s := range sensors {
		if err := n.Add(s); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	n.Start()
	t.Cleanup(n.Stop)
	clk.Advance(6 * time.Hour)

	svc, err := NewService("EVOp SOS", n, clk)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	srv := httptest.NewServer(svc)
	t.Cleanup(srv.Close)
	return srv, clk
}

func get(t *testing.T, rawURL string) (int, string) {
	t.Helper()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService("x", nil, clock.NewSimulated(epoch)); err == nil {
		t.Fatal("nil network accepted")
	}
	clk := clock.NewSimulated(epoch)
	n, _ := sensor.NewNetwork(clk, nil)
	if _, err := NewService("x", n, nil); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestGetCapabilitiesListsOfferings(t *testing.T) {
	srv, _ := testService(t)
	code, body := get(t, srv.URL+"?service=SOS&request=GetCapabilities")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{
		"sos:Capabilities", "morland-level-1", "morland-cam-1",
		"riverLevel", "<sos:uom>m</sos:uom>",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("capabilities missing %q:\n%s", want, body)
		}
	}
}

func TestDescribeSensor(t *testing.T) {
	srv, _ := testService(t)
	code, body := get(t, srv.URL+"?service=SOS&request=DescribeSensor&procedure=morland-turb-1")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"sml:SensorML", "turbidity", "morland"} {
		if !strings.Contains(body, want) {
			t.Fatalf("sensorML missing %q:\n%s", want, body)
		}
	}
	code, _ = get(t, srv.URL+"?service=SOS&request=DescribeSensor&procedure=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("unknown sensor status = %d", code)
	}
}

func TestGetObservationDefaultWindow(t *testing.T) {
	srv, _ := testService(t)
	code, body := get(t, srv.URL+"?service=SOS&request=GetObservation&procedure=morland-level-1")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	// 6 hours of 15-minute sampling = 24 observations.
	if got := strings.Count(body, "<om:samplingTime>"); got != 24 {
		t.Fatalf("observations = %d, want 24\n%s", got, body[:min(len(body), 600)])
	}
	if !strings.Contains(body, "om:ObservationCollection") {
		t.Fatalf("not an observation collection:\n%s", body[:min(len(body), 300)])
	}
}

func TestGetObservationExplicitWindow(t *testing.T) {
	srv, _ := testService(t)
	from := epoch.Add(time.Hour).Format(time.RFC3339)
	to := epoch.Add(2 * time.Hour).Format(time.RFC3339)
	_, body := get(t, srv.URL+"?service=SOS&request=GetObservation&procedure=morland-rain-1&from="+from+"&to="+to)
	// Hourly rain gauge: exactly 1 observation in [1h, 2h).
	if got := strings.Count(body, "<om:samplingTime>"); got != 1 {
		t.Fatalf("observations = %d, want 1\n%s", got, body)
	}
}

func TestGetObservationBadTimes(t *testing.T) {
	srv, _ := testService(t)
	code, _ := get(t, srv.URL+"?service=SOS&request=GetObservation&procedure=morland-rain-1&from=yesterday")
	if code != http.StatusBadRequest {
		t.Fatalf("bad from status = %d", code)
	}
	code, _ = get(t, srv.URL+"?service=SOS&request=GetObservation&procedure=morland-rain-1&to=tomorrow")
	if code != http.StatusBadRequest {
		t.Fatalf("bad to status = %d", code)
	}
	code, _ = get(t, srv.URL+"?service=SOS&request=GetObservation&procedure=ghost")
	if code != http.StatusNotFound {
		t.Fatalf("unknown procedure status = %d", code)
	}
}

func TestBadServiceAndRequest(t *testing.T) {
	srv, _ := testService(t)
	code, body := get(t, srv.URL+"?service=WPS&request=GetCapabilities")
	if code != http.StatusBadRequest || !strings.Contains(body, "ExceptionReport") {
		t.Fatalf("wrong service: %d %s", code, body)
	}
	code, _ = get(t, srv.URL+"?service=SOS&request=Nuke")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown request status = %d", code)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestGetObservationWindowOrder(t *testing.T) {
	srv, _ := testService(t)
	at := func(d time.Duration) string { return epoch.Add(d).Format(time.RFC3339) }
	for _, tc := range []struct {
		name     string
		from, to string
		code     int
		want     int // observation count, checked only on 200
	}{
		{"inverted", at(3 * time.Hour), at(time.Hour), http.StatusBadRequest, 0},
		{"equal", at(2 * time.Hour), at(2 * time.Hour), http.StatusOK, 0},
		{"ordered", at(time.Hour), at(2 * time.Hour), http.StatusOK, 1},
		{"open-ended from", at(time.Hour), "", http.StatusOK, 6},
		{"open-ended to", "", at(2 * time.Hour), http.StatusOK, 1},
		{"inverted open from", at(48 * time.Hour), "", http.StatusBadRequest, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := srv.URL + "?service=SOS&request=GetObservation&procedure=morland-rain-1"
			if tc.from != "" {
				u += "&from=" + tc.from
			}
			if tc.to != "" {
				u += "&to=" + tc.to
			}
			code, body := get(t, u)
			if code != tc.code {
				t.Fatalf("status = %d, want %d\n%s", code, tc.code, body)
			}
			if code == http.StatusBadRequest {
				if !strings.Contains(body, "InvalidParameterValue") {
					t.Fatalf("missing InvalidParameterValue exception:\n%s", body)
				}
				return
			}
			if got := strings.Count(body, "<om:samplingTime>"); got != tc.want {
				t.Fatalf("observations = %d, want %d\n%s", got, tc.want, body)
			}
		})
	}
}

// TestGetObservationBoundaryExactness pins the half-open [from, to)
// contract at exact reading timestamps: the hourly rain gauge reads at
// 1h, 2h, 3h, ... — from=1h includes the 1h reading, to=3h excludes the
// 3h reading, and the default window includes a reading taken at exactly
// "now".
func TestGetObservationBoundaryExactness(t *testing.T) {
	srv, _ := testService(t)
	at := func(d time.Duration) string { return epoch.Add(d).Format(time.RFC3339) }
	u := srv.URL + "?service=SOS&request=GetObservation&procedure=morland-rain-1"

	// [1h, 3h): readings at 1h and 2h — the 3h reading sits exactly on
	// the exclusive end.
	_, body := get(t, u+"&from="+at(time.Hour)+"&to="+at(3*time.Hour))
	if got := strings.Count(body, "<om:samplingTime>"); got != 2 {
		t.Fatalf("[1h,3h) observations = %d, want 2\n%s", got, body)
	}
	if !strings.Contains(body, epoch.Add(time.Hour).Format(time.RFC3339)) {
		t.Fatalf("reading at exactly from missing:\n%s", body)
	}
	if strings.Contains(body, ">"+epoch.Add(3*time.Hour).Format(time.RFC3339)+"<") {
		t.Fatalf("reading at exactly to leaked into half-open window:\n%s", body)
	}

	// Default window: the clock sits at 6h, and the gauge read at
	// exactly 6h — the inclusive-of-now default must include it.
	_, body = get(t, u)
	if !strings.Contains(body, ">"+epoch.Add(6*time.Hour).Format(time.RFC3339)+"<") {
		t.Fatalf("reading at exactly now missing from default window:\n%s", body)
	}
	if got := strings.Count(body, "<om:samplingTime>"); got != 6 {
		t.Fatalf("default window observations = %d, want 6\n%s", got, body)
	}
}

// TestGetObservationStreamedDocument checks the member-by-member stream
// is a well-formed XML document with one om:Observation per om:member,
// every member carrying the full O&M fields.
func TestGetObservationStreamedDocument(t *testing.T) {
	srv, _ := testService(t)
	_, body := get(t, srv.URL+"?service=SOS&request=GetObservation&procedure=morland-level-1")

	dec := xml.NewDecoder(strings.NewReader(body))
	depth, members, observations, sampling := 0, 0, 0, 0
	var path []string
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("streamed document not well-formed: %v\n%s", err, body[:min(len(body), 400)])
		}
		switch el := tok.(type) {
		case xml.StartElement:
			path = append(path, el.Name.Local)
			depth++
			switch el.Name.Local {
			case "member":
				members++
				if depth != 2 {
					t.Fatalf("om:member at depth %d, want 2", depth)
				}
			case "Observation":
				observations++
				if path[len(path)-2] != "member" {
					t.Fatalf("om:Observation outside om:member: %v", path)
				}
			case "samplingTime":
				sampling++
			}
		case xml.EndElement:
			path = path[:len(path)-1]
			depth--
		}
	}
	if depth != 0 {
		t.Fatalf("unbalanced document, depth %d at EOF", depth)
	}
	// 6h of 15-minute sampling: 24 members, each holding exactly one
	// observation with its samplingTime.
	if members != 24 || observations != 24 || sampling != 24 {
		t.Fatalf("members/observations/samplingTimes = %d/%d/%d, want 24 each",
			members, observations, sampling)
	}
}

// TestGetObservationConditional exercises the ETag/304 revalidation
// loop: identical requests against an unchanged store return
// byte-identical ETags and a 304 short-circuit; ingest invalidates.
func TestGetObservationConditional(t *testing.T) {
	srv, clk := testService(t)
	u := srv.URL + "?service=SOS&request=GetObservation&procedure=morland-level-1" +
		"&from=" + epoch.Format(time.RFC3339) + "&to=" + epoch.Add(3*time.Hour).Format(time.RFC3339)

	resp, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on observation response")
	}
	if lm := resp.Header.Get("Last-Modified"); lm == "" {
		t.Fatal("no Last-Modified on observation response")
	}

	// Same window, unchanged store: byte-identical ETag.
	resp2, err := http.Get(u)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.Header.Get("ETag") != etag {
		t.Fatalf("ETag changed without ingest: %s -> %s", etag, resp2.Header.Get("ETag"))
	}

	// Revalidation short-circuits with 304 and no body.
	req, _ := http.NewRequest("GET", u, nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp3.StatusCode)
	}
	if len(body) != 0 {
		t.Fatalf("304 carried a %d-byte body", len(body))
	}

	// Ingest moves the stamp: the stale validator no longer matches.
	clk.Advance(time.Hour)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("status after ingest = %d, want 200", resp4.StatusCode)
	}
	if resp4.Header.Get("ETag") == etag {
		t.Fatal("ETag unchanged after ingest")
	}
}
