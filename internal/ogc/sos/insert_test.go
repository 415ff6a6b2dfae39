package sos

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"evop/internal/clock"
	"evop/internal/geo"
	"evop/internal/sensor"
)

// referenceInsert is the InsertObservation handler as it was before the
// byte-scanner fast path: encoding/xml in, encoding/xml out. The
// differential fuzzer holds the service's handler to it.
func referenceInsert(s *Service, w http.ResponseWriter, r *http.Request) {
	var doc xmlInsertObservation
	body := http.MaxBytesReader(w, r.Body, maxInsertBytes)
	if err := xml.NewDecoder(body).Decode(&doc); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeException(w, http.StatusRequestEntityTooLarge, "InvalidRequest",
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeException(w, http.StatusBadRequest, "InvalidRequest", "malformed InsertObservation document")
		return
	}
	if doc.Procedure == "" {
		writeException(w, http.StatusBadRequest, "MissingParameterValue", "om:procedure is required")
		return
	}
	if doc.Value == nil {
		writeException(w, http.StatusBadRequest, "MissingParameterValue", "om:result is required")
		return
	}
	at, err := time.Parse(time.RFC3339, doc.Time)
	if err != nil {
		writeException(w, http.StatusBadRequest, "InvalidParameterValue", "bad om:samplingTime")
		return
	}
	if err := s.network.Ingest(doc.Procedure, at, *doc.Value); err != nil {
		switch {
		case errors.Is(err, sensor.ErrNotFound):
			writeException(w, http.StatusNotFound, "InvalidParameterValue", "no procedure "+doc.Procedure)
		case errors.Is(err, sensor.ErrBadSensor):
			writeException(w, http.StatusBadRequest, "InvalidParameterValue", err.Error())
		default:
			writeException(w, http.StatusInternalServerError, "NoApplicableCode", err.Error())
		}
		return
	}
	stamp, _ := s.network.ReadStamp(doc.Procedure)
	writeXML(w, http.StatusOK, xmlInsertResponse{
		AssignedID: fmt.Sprintf("%s@%d", doc.Procedure, stamp.Seq),
	})
}

// oddCatchment names a second deployment whose sensor IDs XML must
// escape, so a successful insert can also take the encoder's response.
const oddCatchment = `o'neill&co`

// insertService builds an SOS service over the morland and oddCatchment
// LEFT deployments, six hours into a simulated clock that nothing
// advances: no sampler tick lands between two inserts.
func insertService(tb testing.TB) (*Service, *sensor.Network, *clock.Simulated) {
	tb.Helper()
	clk := clock.NewSimulated(epoch)
	n, err := sensor.NewNetwork(clk, nil)
	if err != nil {
		tb.Fatalf("NewNetwork: %v", err)
	}
	for _, catchment := range []string{"morland", oddCatchment} {
		sensors, err := sensor.LEFTDeployment(clk, catchment, geo.Point{Lat: 54.596, Lon: -2.643}, 101, epoch)
		if err != nil {
			tb.Fatalf("LEFTDeployment: %v", err)
		}
		for _, s := range sensors {
			if err := n.Add(s); err != nil {
				tb.Fatalf("Add: %v", err)
			}
		}
	}
	clk.Advance(6 * time.Hour)
	svc, err := NewService("EVOp SOS", n, clk)
	if err != nil {
		tb.Fatalf("NewService: %v", err)
	}
	return svc, n, clk
}

// perfbenchInsert is the body the benchmark's community gauges post.
func perfbenchInsert(procedure string, at time.Time, v float64) string {
	return `<sos:InsertObservation xmlns:sos="http://www.opengis.net/sos/1.0" xmlns:om="http://www.opengis.net/om/1.0">` +
		`<om:Observation><om:procedure>` + procedure + `</om:procedure>` +
		`<om:samplingTime>` + at.Format(time.RFC3339Nano) + `</om:samplingTime>` +
		`<om:result>` + strconv.FormatFloat(v, 'g', -1, 64) + `</om:result></om:Observation></sos:InsertObservation>`
}

// insertSeeds are bodies on and around the canonical shape, each with
// whether scanInsert takes it.
func insertSeeds() []struct {
	body string
	fast bool
} {
	at := epoch.Add(5 * time.Hour)
	now := at.Format(time.RFC3339)
	bare := func(inner string) string {
		return `<InsertObservation><Observation>` + inner + `</Observation></InsertObservation>`
	}
	om := func(inner string) string {
		return `<sos:InsertObservation xmlns:sos="http://www.opengis.net/sos/1.0" xmlns:om="http://www.opengis.net/om/1.0"><om:Observation>` +
			inner + `</om:Observation></sos:InsertObservation>`
	}
	fields := func(p, t, r string) string {
		return `<procedure>` + p + `</procedure><samplingTime>` + t + `</samplingTime><result>` + r + `</result>`
	}
	omFields := func(p, t, r string) string {
		return `<om:procedure>` + p + `</om:procedure><om:samplingTime>` + t + `</om:samplingTime><om:result>` + r + `</om:result>`
	}
	return []struct {
		body string
		fast bool
	}{
		{perfbenchInsert("morland-level-1", at, 1.25), true},
		{perfbenchInsert("morland-rain-1", at.Add(time.Second), 0), true},
		{bare(fields("morland-level-1", now, "1.5")), true},
		{om(omFields("morland-temp-1", now, "-3e-2")), true},
		{"\r\n <InsertObservation xmlns=\"urn:x\" \t xmlns:om=\"urn:om\" >\n\t<Observation>\n  <om:result> 7 </om:result>\n  <samplingTime>" +
			now + "</samplingTime>\n  <a.b-c:procedure>morland-turb-1</a.b-c:procedure>\n</Observation>\n</InsertObservation>\n\n", true},
		{bare(fields("morland-level-1", now, "")), true},
		{bare(fields("", now, "1")), true},
		{bare(fields("morland-level-1", " "+now, "1")), true},
		{bare(fields("morland-level-1", "yesterday", "1")), true},
		{bare(fields("morland-level-1", "1700-01-01T00:00:00Z", "1")), true},
		{bare(fields("nowhere-level-1", now, "1")), true},
		{bare(fields("morland-cam-1", now, "1")), true},
		{bare(fields("morland-level-1", now, "NaN")), true},
		{bare(fields("morland-level-1", now, "-Inf")), true},
		{bare(fields("morland-level-1", now, "0x1p-2")), true},
		{`<InsertObservation xmlns="" xmlns:om="" xmlns:om="urn:om"><Observation>` + fields("morland-level-1", now, "1") +
			`</Observation></InsertObservation>`, true},
		{`<xml:InsertObservation xmlns:xml="urn:x"><xmlns:Observation>` + fields("morland-level-1", now, "1") +
			`</xmlns:Observation></xml:InsertObservation>`, true},
		// Off the shape: the decoder answers these.
		{bare(fields("morland-level-1", now, "1e400")), false},
		{bare(fields("morland-level-1", now, "   ")), false},
		{bare(fields("morland-level-1", now, "one")), false},
		{bare(fields("o&apos;neill&amp;co-level-1", now, "2")), false},
		{bare(fields("morland-level-1", now, "<![CDATA[1.5]]>")), false},
		{bare(fields("morland-level-&#49;", now, "1")), false},
		{bare(fields("morland-level-1", now, "1<!-- c -->2")), false},
		{`<?xml version="1.0" encoding="UTF-8"?>` + bare(fields("morland-level-1", now, "1")), false},
		{`<!-- gauge 7 -->` + bare(fields("morland-level-1", now, "1")), false},
		{bare(fields("morland-level-1", now, "1") + `<procedure>morland-rain-1</procedure>`), false},
		{bare(fields("morland-level-1", now, "1") + `<note>spare</note>`), false},
		{bare(`<procedure>morland-level-1</procedure><samplingTime>` + now + `</samplingTime>`), false},
		{bare(`<procedure>morland-level-1</procedure><samplingTime>` + now + `</samplingTime><result/>`), false},
		{`<InsertObservation><Observation>` + fields("morland-level-1", now, "1") + `</Observation><Observation>` +
			fields("morland-rain-1", now, "2") + `</Observation></InsertObservation>`, false},
		{bare(fields("morland-level-1", now, "1")) + `trailing garbage`, false},
		{bare(fields("morland-level-1", now, "1")) + `<InsertObservation/>`, false},
		{bare(fields("morland-level-1", now, "1")) + strings.Repeat(" ", 70<<10), false},
		{bare(fields(strings.Repeat("x", 70<<10), now, "1")), false},
		{`<InsertObservation a="1">` + `<Observation>` + fields("morland-level-1", now, "1") + `</Observation></InsertObservation>`, false},
		{`<InsertObservation><Observation>` + fields("morland-level-1", now, "1") + `</Observation></sos:InsertObservation>`, false},
		{`<InsertObservation><Observation><procedure>morland-level-1</om:procedure></Observation></InsertObservation>`, false},
		{`<InsertObservation xmlns:om='urn:om'><Observation>` + fields("morland-level-1", now, "1") + `</Observation></InsertObservation>`, false},
		{`<Insert><Observation>` + fields("morland-level-1", now, "1") + `</Observation></Insert>`, false},
		{"<InsertObservation><Observation>" + fields("morland-level-1", now, "1\r\n") + "</Observation></InsertObservation>", false},
		{"", false},
		{bare(fields("morland-level-1", now, "1")) + "\x00", false},
		{"\ufeff" + bare(fields("morland-level-1", now, "1")), false},
		{`<InsertObservation xmlns:1a="urn:x"><Observation>` + fields("morland-level-1", now, "1") + `</Observation></InsertObservation>`, false},
		{"<", false},
	}
}

// FuzzInsertObservation holds the service's InsertObservation handler
// to referenceInsert: for every body both answer the same status,
// Content-Type and bytes, and leave every sensor with the same stamp
// and newest reading. Two identical networks on unadvanced clocks take
// the two handlers' inserts in lockstep.
func FuzzInsertObservation(f *testing.F) {
	for _, seed := range insertSeeds() {
		f.Add(seed.body)
	}
	svc, n, _ := insertService(f)
	ref, refN, _ := insertService(f)
	f.Fuzz(func(t *testing.T, body string) {
		got := httptest.NewRecorder()
		svc.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/sos", strings.NewReader(body)))
		want := httptest.NewRecorder()
		referenceInsert(ref, want, httptest.NewRequest(http.MethodPost, "/sos", strings.NewReader(body)))
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("body %q:\ngot  %d %q %q\nwant %d %q %q", body,
				got.Code, got.Header().Get("Content-Type"), got.Body,
				want.Code, want.Header().Get("Content-Type"), want.Body)
		}
		for _, s := range n.Sensors() {
			gotStamp, _ := n.ReadStamp(s.ID)
			wantStamp, _ := refN.ReadStamp(s.ID)
			gotR, gotErr := n.Latest(s.ID)
			wantR, wantErr := refN.Latest(s.ID)
			if gotStamp != wantStamp || gotR != wantR || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("body %q: %s holds %+v %+v %v, reference %+v %+v %v", body, s.ID,
					gotStamp, gotR, gotErr, wantStamp, wantR, wantErr)
			}
		}
	})
}

// TestScanInsertShape pins which seeds the fast path takes, so the
// differential fuzzer compares the scanner, not two runs of the
// decoder, and checks that whatever it takes it reads as the decoder
// does.
func TestScanInsertShape(t *testing.T) {
	for _, seed := range insertSeeds() {
		got, ok := scanInsert(seed.body)
		// The handler scans only bodies within the bound.
		ok = ok && len(seed.body) <= maxInsertBytes
		if ok != seed.fast {
			t.Errorf("scanInsert(%.120q) ok = %v, want %v", seed.body, ok, seed.fast)
			continue
		}
		if !ok {
			continue
		}
		want, err := decodeInsert(strings.NewReader(seed.body))
		if err != nil {
			t.Errorf("scanInsert took %.120q, which the decoder refuses: %v", seed.body, err)
			continue
		}
		if got.Procedure != want.Procedure || got.Time != want.Time ||
			want.Value == nil || math.Float64bits(*got.Value) != math.Float64bits(*want.Value) {
			t.Errorf("scanInsert(%.120q) = %+v, decoder %+v", seed.body, got, want)
		}
	}
}

// nopWriter is a ResponseWriter that keeps only its header map, so an
// allocation count covers the handler and not a recorder's buffers.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w nopWriter) WriteHeader(int)             {}

// insertBodies returns n perfbench-shaped bodies for one gauge, a
// second apart and ending at now.
func insertBodies(n int, now time.Time) ([]string, []time.Time) {
	bodies, times := make([]string, n), make([]time.Time, n)
	for i := range bodies {
		times[i] = now.Add(time.Duration(i-n) * time.Second)
		bodies[i] = perfbenchInsert("morland-level-1", times[i], float64(i%2000)/100)
	}
	return bodies, times
}

// BenchmarkInsertObservation posts perfbench-shaped bodies for one
// gauge in sampling-time order, the clock advanced to each, as the
// benchmark's community gauges do.
func BenchmarkInsertObservation(b *testing.B) {
	svc, _, clk := insertService(b)
	bodies, times := insertBodies(4096, clk.Now().Add(4096*time.Second))
	w := nopWriter{h: make(http.Header)}
	var rd strings.Reader
	req := httptest.NewRequest(http.MethodPost, "/sos", nil)
	req.Body = io.NopCloser(&rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(bodies)
		if k == 0 && i > 0 {
			b.StopTimer()
			svc, _, clk = insertService(b)
			bodies, times = insertBodies(len(bodies), clk.Now().Add(time.Duration(len(bodies))*time.Second))
			b.StartTimer()
		}
		clk.AdvanceTo(times[k])
		rd.Reset(bodies[k])
		svc.ServeHTTP(w, req)
	}
}

// TestInsertObservationConcurrentIDs posts inserts for one gauge from
// several goroutines: every insert is assigned its own id.
func TestInsertObservationConcurrentIDs(t *testing.T) {
	svc, _, clk := insertService(t)
	const writers, each = 8, 16
	ids := make([]string, writers*each)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				at := clk.Now().Add(-time.Duration(w*each+i) * time.Second)
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sos",
					strings.NewReader(perfbenchInsert("morland-level-1", at, 1))))
				var doc struct {
					ID string `xml:"AssignedObservationId"`
				}
				if err := xml.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil {
					t.Errorf("insert answered %d (%v): %s", rec.Code, err, rec.Body)
				}
				ids[w*each+i] = doc.ID
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %s assigned twice", id)
		}
		seen[id] = true
	}
}
