package sos

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/geo"
	"evop/internal/httpcond"
	"evop/internal/sensor"
)

var epoch = time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC)

func testService(t *testing.T) (*httptest.Server, *clock.Simulated) {
	t.Helper()
	srv, _, clk := testServiceNetwork(t)
	return srv, clk
}

// testServiceNetwork serves SOS over a LEFT deployment six hours into
// its simulated clock and also returns the network behind it.
func testServiceNetwork(t *testing.T) (*httptest.Server, *sensor.Network, *clock.Simulated) {
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
	return srv, n, clk
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

// TestKVPNamesCaseInsensitive pins OWS Common 1.1.0 §11.5.2 on the GET
// binding: parameter names match whatever their case, so upper- and
// mixed-case requests reach the same operations as lower-case ones.
func TestKVPNamesCaseInsensitive(t *testing.T) {
	srv, _ := testService(t)
	tests := []struct {
		query, want string
	}{
		{"SERVICE=SOS&REQUEST=GetCapabilities", "sos:Capabilities"},
		{"Service=SOS&Request=GetCapabilities", "sos:Capabilities"},
		{"SERVICE=SOS&REQUEST=DescribeSensor&PROCEDURE=morland-turb-1", "sml:SensorML"},
		{"service=SOS&Request=DescribeSensor&Procedure=morland-turb-1", "sml:SensorML"},
		{"SERVICE=SOS&REQUEST=GetObservation&PROCEDURE=morland-level-1", "om:ObservationCollection"},
		{"Service=SOS&Request=GetObservation&Procedure=morland-rain-1&From=" +
			epoch.Add(time.Hour).Format(time.RFC3339) + "&TO=" + epoch.Add(2*time.Hour).Format(time.RFC3339),
			"<om:samplingTime>"},
	}
	for _, tc := range tests {
		code, body := get(t, srv.URL+"?"+tc.query)
		if code != http.StatusOK || !strings.Contains(body, tc.want) {
			t.Errorf("?%s = %d, want 200 with %q:\n%s", tc.query, code, tc.want, body[:min(len(body), 300)])
		}
	}
	// A name in two spellings answers the same on every request: the
	// all-lower-case spelling is read first.
	for i := 0; i < 20; i++ {
		if code, body := get(t, srv.URL+"?service=SOS&SERVICE=WPS&request=GetCapabilities"); code != http.StatusOK {
			t.Fatalf("try %d: mixed spellings = %d:\n%s", i, code, body)
		}
	}
	// The explicit window still applies under upper-case names: one
	// hourly rain observation in [1h, 2h).
	_, body := get(t, srv.URL+"?SERVICE=SOS&REQUEST=GetObservation&PROCEDURE=morland-rain-1&FROM="+
		epoch.Add(time.Hour).Format(time.RFC3339)+"&TO="+epoch.Add(2*time.Hour).Format(time.RFC3339))
	if got := strings.Count(body, "<om:samplingTime>"); got != 1 {
		t.Fatalf("observations = %d, want 1\n%s", got, body)
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

// TestObservationTagMatchesTag holds observationTag, which hashes its
// numbers from a stack buffer, to the Tag of their fmt.Sprint text it
// replaced, over sensors, sequences and windows, zero and negative
// values included.
func TestObservationTagMatchesTag(t *testing.T) {
	for _, id := range []string{"morland-level-1", "", "Café-水位"} {
		for _, seq := range []uint64{0, 1, 42, math.MaxUint64} {
			for _, w := range [][2]time.Time{
				{epoch, epoch.Add(24 * time.Hour)},
				{time.Unix(0, 0), time.Unix(0, 0)},
				{time.Unix(-86400, -1), time.Unix(0, 1)},
				{time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)},
			} {
				got := observationTag(id, seq, w[0], w[1])
				want := httpcond.Tag("sos-observation", id,
					fmt.Sprint(seq), fmt.Sprint(w[0].UnixNano()), fmt.Sprint(w[1].UnixNano()))
				if got != want {
					t.Fatalf("observationTag(%q, %d, %v, %v) = %s, want %s", id, seq, w[0], w[1], got, want)
				}
			}
		}
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

func insertXML(procedure, samplingTime, result string) string {
	doc := `<sos:InsertObservation xmlns:sos="http://www.opengis.net/sos/1.0" xmlns:om="http://www.opengis.net/om/1.0"><om:Observation>`
	if procedure != "" {
		doc += `<om:procedure>` + procedure + `</om:procedure>`
	}
	doc += `<om:samplingTime>` + samplingTime + `</om:samplingTime>`
	if result != "" {
		doc += `<om:result>` + result + `</om:result>`
	}
	return doc + `</om:Observation></sos:InsertObservation>`
}

// TestInsertObservation drives the POST binding: a valid observation
// lands in the store, and every refusal leaves the sensor's stamp
// untouched. Sampling times outside the ingest window (a year back, a
// day ahead of the network clock) are refused before they reach the
// rollup index, whose dense bucket runs would otherwise grow to reach
// them.
func TestInsertObservation(t *testing.T) {
	srv, n, clk := testServiceNetwork(t)
	now := clk.Now().Format(time.RFC3339)
	for _, tc := range []struct {
		name, body string
		code       int
		exception  string
	}{
		{"in window", insertXML("morland-level-1", now, "1.25"), http.StatusOK, ""},
		{"missing procedure", insertXML("", now, "1.25"), http.StatusBadRequest, "MissingParameterValue"},
		{"missing result", insertXML("morland-level-1", now, ""), http.StatusBadRequest, "MissingParameterValue"},
		{"unparseable time", insertXML("morland-level-1", "yesterday", "1.25"), http.StatusBadRequest, "InvalidParameterValue"},
		{"year 1700", insertXML("morland-level-1", "1700-01-01T00:00:00Z", "1.25"), http.StatusBadRequest, "InvalidParameterValue"},
		{"year 9999", insertXML("morland-level-1", "9999-12-31T00:00:00Z", "1.25"), http.StatusBadRequest, "InvalidParameterValue"},
		{"unknown procedure", insertXML("nowhere-level-1", now, "1.25"), http.StatusNotFound, "InvalidParameterValue"},
		{"webcam procedure", insertXML("morland-cam-1", now, "1.25"), http.StatusBadRequest, "InvalidParameterValue"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, _ := n.ReadStamp("morland-level-1")
			resp, err := http.Post(srv.URL, "application/xml", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d\n%s", resp.StatusCode, tc.code, body)
			}
			after, _ := n.ReadStamp("morland-level-1")
			if tc.code != http.StatusOK {
				if !strings.Contains(string(body), `exceptionCode="`+tc.exception+`"`) {
					t.Fatalf("want exception %s:\n%s", tc.exception, body)
				}
				if after != before {
					t.Fatalf("refused insert moved the stamp: %+v -> %+v", before, after)
				}
				return
			}
			var doc struct {
				ID string `xml:"AssignedObservationId"`
			}
			if err := xml.Unmarshal(body, &doc); err != nil {
				t.Fatalf("decoding response: %v\n%s", err, body)
			}
			if after.Seq != before.Seq+1 || doc.ID != fmt.Sprintf("morland-level-1@%d", after.Seq) {
				t.Fatalf("assigned %q, stamp %+v -> %+v", doc.ID, before, after)
			}
		})
	}
}
