package wps

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"evop/internal/ogc"
	"evop/internal/timeseries"
)

// FuzzWPSKVP sends raw /wps query strings, in which one name may come in
// several spellings, to a service with one process: no request answers
// 5xx, and three repeats of a query answer the same status and bytes.
// An asynchronous Execute is not sent: each accepted one mints a new
// execution ID by design. So no execution exists, and GetStatus too
// answers the same every time.
func FuzzWPSKVP(f *testing.F) {
	svc := newService(f, nil)
	if err := svc.Register(&addProcess{}); err != nil {
		f.Fatalf("Register: %v", err)
	}
	f.Cleanup(svc.Wait)
	for _, seed := range []string{
		"service=WPS&SERVICE=SOS&request=GetCapabilities",
		"service=WPS&request=GetCapabilities",
		"Service=wps&REQUEST=describeprocess&identifier=add&Identifier=ghost",
		"service=WPS&request=Execute&identifier=add&datainputs=a%3D2%3Bb%3D3.5&DataInputs=a%3Dx",
		"service=WPS&request=Execute&identifier=add&datainputs=a%3D1&storeExecuteResponse=true",
		"service=WPS&request=GetStatus&executionid=e1&ExecutionID=e2",
		"SERVICE=WPS&service=wps&Request=GetCapabilities&request=Execute",
		"service=WPS&request=Bogus&REQUEST=GetCapabilities",
		"%zz&service=WPS;request=GetCapabilities",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		parsed, _ := url.ParseQuery(raw) // what the service reads, errors and all
		q := ogc.KVP(parsed)
		if strings.EqualFold(q.Get("request"), "execute") && strings.EqualFold(q.Get("storeexecuteresponse"), "true") {
			return
		}
		var first *httptest.ResponseRecorder
		for try := 0; try < 3; try++ {
			req := httptest.NewRequest(http.MethodGet, "/wps", nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%q = %d %s", raw, rec.Code, rec.Body)
			}
			if first == nil {
				first = rec
				continue
			}
			if rec.Code != first.Code || !bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%q: try %d = %d %s, first = %d %s", raw, try, rec.Code, rec.Body, first.Code, first.Body)
			}
		}
	})
}

// FuzzParseDataInputs hardens the KVP input parser.
func FuzzParseDataInputs(f *testing.F) {
	f.Add("a=1;b=2")
	f.Add("a=x=y;;")
	f.Add("=v")
	f.Fuzz(func(t *testing.T, raw string) {
		inputs, err := ParseDataInputs(raw)
		if err != nil {
			return
		}
		for k := range inputs {
			if k == "" {
				t.Fatal("accepted empty input key")
			}
		}
	})
}

// FuzzParseExecuteDocument hardens the XML POST parser.
func FuzzParseExecuteDocument(f *testing.F) {
	f.Add(`<Execute><Identifier>add</Identifier></Execute>`)
	f.Add(`<Execute storeExecuteResponse="true"><Identifier>x</Identifier><DataInputs><Input><Identifier>a</Identifier><Data><LiteralData>1</LiteralData></Data></Input></DataInputs></Execute>`)
	f.Add(`<broken`)
	f.Fuzz(func(t *testing.T, raw string) {
		id, inputs, _, err := parseExecuteDocument(strings.NewReader(raw))
		if err != nil {
			return
		}
		if id == "" {
			t.Fatal("accepted empty identifier")
		}
		for k := range inputs {
			if k == "" {
				t.Fatal("accepted empty input key")
			}
		}
	})
}

// xmlExecuteResponse and xmlOutput are the ExecuteResponse as
// encoding/xml marshalled it through writeXML before the document was
// appended by hand: the oracle executeResponse.write must match byte
// for byte.
type xmlExecuteResponse struct {
	XMLName     xml.Name    `xml:"wps:ExecuteResponse"`
	ExecutionID string      `xml:"executionId,attr,omitempty"`
	Process     string      `xml:"wps:Process>ows:Identifier"`
	Status      string      `xml:"wps:Status>wps:Value"`
	Message     string      `xml:"wps:Status>wps:Message,omitempty"`
	Outputs     []xmlOutput `xml:"wps:ProcessOutputs>wps:Output,omitempty"`
}

type xmlOutput struct {
	Identifier string `xml:"ows:Identifier"`
	Data       string `xml:"wps:Data>wps:LiteralData"`
}

// oracleResponse writes d as the encoding/xml path did, each series
// output first encoded with FlotJSON into a literal string.
func oracleResponse(t *testing.T, d executeResponse) *httptest.ResponseRecorder {
	t.Helper()
	keys := make([]string, 0, len(d.outputs))
	for k := range d.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	doc := xmlExecuteResponse{
		ExecutionID: d.executionID, Process: d.process, Status: d.status, Message: d.message,
		Outputs: make([]xmlOutput, 0, len(keys)),
	}
	for _, k := range keys {
		data := d.outputs[k].lit
		if s := d.outputs[k].Series(); s != nil {
			flot, err := s.FlotJSON()
			if err != nil {
				t.Fatalf("FlotJSON: %v", err)
			}
			data = string(flot)
		}
		doc.Outputs = append(doc.Outputs, xmlOutput{Identifier: k, Data: data})
	}
	rec := httptest.NewRecorder()
	writeXML(rec, http.StatusOK, doc)
	return rec
}

// checkAgainstOracle fails unless d.write answers exactly as the oracle.
func checkAgainstOracle(t *testing.T, d executeResponse) {
	t.Helper()
	want := oracleResponse(t, d)
	got := httptest.NewRecorder()
	d.write(got)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("status %d %q, oracle %d %q", got.Code, got.Header().Get("Content-Type"),
			want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("document differs from encoding/xml\n got: %q\nwant: %q", got.Body, want.Body)
	}
}

// fuzzSeries builds a series from raw bits: a start in Unix
// milliseconds, a step from 1 ns to about 13 days and up to 64 values
// of any float64 bit pattern.
func fuzzSeries(startMS int64, stepNS uint64, raw []byte) *timeseries.Series {
	vals := make([]float64, 0, 64)
	for len(raw) >= 8 && len(vals) < 64 {
		vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		raw = raw[8:]
	}
	return timeseries.MustNew(time.UnixMilli(startMS).UTC(), time.Duration(stepNS%(1<<50))+1, vals)
}

// FuzzExecuteResponse is differential: for any identifier, status,
// message, executionId and literal outputs (invalid UTF-8, control
// characters, "]]>" and quotes included) and one series output, the
// appended ExecuteResponse equals what encoding/xml wrote for the same
// document with the series passed through FlotJSON as a literal.
func FuzzExecuteResponse(f *testing.F) {
	f.Add("topmodel", "ProcessSucceeded", "", "", "peakMm", "1.5", "volumeMm", "3", "hydrograph",
		int64(1546300800000), uint64(3_600_000_000_000), []byte("\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x00\x00\x00\x00\x00\xf8\x7f"))
	f.Add("add", "ProcessFailed", "catchment \"ghost<x>\" & 'y' ]]>", "e7", "", "", "", "", "",
		int64(0), uint64(0), []byte(nil))
	f.Add("\xff\x00x", "Process\tAccepted\r\n", "\x01�\xed\xa0\x80", "e\"1\"<&>", "k]]>", "\x7f\x1b퟿￿", "k", "v\n", "s\xc0",
		int64(-62135596800000), uint64(7), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Add("a&b", "x>y", "it's", "e<1", "q\"", "tab\t", "nl\n", "cr\r", "\u00e9\x7f",
		int64(1), uint64(1), []byte("\x01\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, process, status, message, execID, k1, v1, k2, v2, seriesKey string,
		startMS int64, stepNS uint64, raw []byte) {
		outputs := map[string]Value{}
		if k1 != "" || v1 != "" {
			outputs[k1] = Literal(v1)
		}
		if k2 != "" || v2 != "" {
			outputs[k2] = Literal(v2)
		}
		d := executeResponse{executionID: execID, process: process, status: status, message: message, outputs: outputs}
		checkAgainstOracle(t, d)
		if seriesKey != "" || len(raw) > 0 {
			outputs[seriesKey] = SeriesValue(fuzzSeries(startMS, stepNS, raw))
			checkAgainstOracle(t, d)
		}
	})
}
