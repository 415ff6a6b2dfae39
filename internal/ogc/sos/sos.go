// Package sos implements an OGC Sensor Observation Service (SOS-style)
// interface over the simulated in-situ sensor network. The paper's data
// layer adopts SOS alongside WPS as the geospatial-community standards
// EVOp must speak to remain interoperable with external data providers.
//
// Supported operations (KVP GET binding):
//
//	?service=SOS&request=GetCapabilities
//	?service=SOS&request=DescribeSensor&procedure=<sensorId>
//	?service=SOS&request=GetObservation&procedure=<sensorId>
//	    [&from=RFC3339&to=RFC3339]
//
// plus the XML POST binding for InsertObservation — the write half of
// the paper's "citizen sensing" ambition, letting community-deployed
// gauges push readings in:
//
//	POST <sos:InsertObservation>
//	       <om:Observation>
//	         <om:procedure>morland-level-1</om:procedure>
//	         <om:samplingTime>2019-07-01T00:00:00Z</om:samplingTime>
//	         <om:result>1.25</om:result>
//	       </om:Observation>
//	     </sos:InsertObservation>
//
// Insert bodies are bounded (an observation is small); an oversized
// document is refused with 413.
//
// The canonical insert, the one above with or without namespace
// prefixes, is read by a byte scanner (scanInsert) and answered from an
// appended buffer. It must be a root InsertObservation carrying only
// xmlns declarations, holding one Observation that holds exactly one
// procedure, samplingTime and result, each of printable ASCII text with
// no character XML escapes; close tags repeat their open tags, and only
// whitespace stands between and after the elements. Every other body —
// a prolog, comments, CDATA, entities, other attributes, missing,
// repeated or extra elements, trailing content, an unreadable or
// oversized body — goes to encoding/xml over the same bytes, and every
// body is answered exactly as by encoding/xml: the same status,
// exception code and text, response bytes and stored reading.
//
// GetObservation windows are half-open, [from, to): an observation
// stamped exactly `from` is included, one stamped exactly `to` is not.
// When `to` is omitted the window runs through the present inclusively —
// a reading taken at this very instant is part of "the last 24 hours".
//
// Responses are XML documents with O&M-style observation members.
// Observation collections stream member-by-member, so response memory
// does not grow with the window, and carry ETag/Last-Modified validators
// derived from the sensor's ingest sequence: If-None-Match revalidation
// answers 304 without touching the store.
package sos

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"evop/internal/httpcond"
	"evop/internal/ogc"
	"evop/internal/sensor"
	"evop/internal/timeseries"
)

// Service is the SOS endpoint over one sensor network; it implements
// http.Handler.
type Service struct {
	title   string
	network *sensor.Network
	clk     interface{ Now() time.Time }
}

var _ http.Handler = (*Service)(nil)

// NewService wraps a sensor network. clk supplies "now" for unbounded
// GetObservation windows.
func NewService(title string, network *sensor.Network, clk interface{ Now() time.Time }) (*Service, error) {
	if network == nil || clk == nil {
		return nil, fmt.Errorf("sos: nil network or clock")
	}
	return &Service{title: title, network: network, clk: clk}, nil
}

type xmlCapabilities struct {
	XMLName   xml.Name      `xml:"sos:Capabilities"`
	Title     string        `xml:"ows:ServiceIdentification>ows:Title"`
	Type      string        `xml:"ows:ServiceIdentification>ows:ServiceType"`
	Offerings []xmlOffering `xml:"sos:Contents>sos:ObservationOfferingList>sos:ObservationOffering"`
}

type xmlOffering struct {
	Procedure        string  `xml:"sos:procedure"`
	ObservedProperty string  `xml:"sos:observedProperty"`
	UOM              string  `xml:"sos:uom"`
	Catchment        string  `xml:"sos:featureOfInterest"`
	Lat              float64 `xml:"sos:position>gml:lat"`
	Lon              float64 `xml:"sos:position>gml:lon"`
}

type xmlSensorML struct {
	XMLName   xml.Name `xml:"sml:SensorML"`
	ID        string   `xml:"sml:System>sml:identifier"`
	Kind      string   `xml:"sml:System>sml:classifier"`
	Catchment string   `xml:"sml:System>sml:attachedTo"`
	IntervalS float64  `xml:"sml:System>sml:samplingInterval"`
	Lat       float64  `xml:"sml:System>sml:position>gml:lat"`
	Lon       float64  `xml:"sml:System>sml:position>gml:lon"`
}

// xmlObservation is one om:Observation member; collections stream these
// one om:member at a time (see streamObservations) rather than encoding
// a whole-document struct.
type xmlObservation struct {
	Procedure string  `xml:"om:procedure"`
	Property  string  `xml:"om:observedProperty"`
	Time      string  `xml:"om:samplingTime"`
	Value     float64 `xml:"om:result"`
	UOM       string  `xml:"om:uom,attr"`
}

type xmlException struct {
	XMLName   xml.Name `xml:"ows:ExceptionReport"`
	Exception struct {
		Code string `xml:"exceptionCode,attr"`
		Text string `xml:"ows:ExceptionText"`
	} `xml:"ows:Exception"`
}

func writeXML(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(status)
	w.Write([]byte(xml.Header))
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	_ = enc.Encode(doc)
}

func writeException(w http.ResponseWriter, status int, code, text string) {
	var doc xmlException
	doc.Exception.Code = code
	doc.Exception.Text = text
	writeXML(w, status, doc)
}

// maxInsertBytes bounds an InsertObservation document: one observation
// plus generous markup headroom.
const maxInsertBytes = 64 << 10

// xmlInsertObservation is the decoded InsertObservation request. Tags
// are namespace-agnostic so both prefixed (om:procedure) and bare
// documents parse.
type xmlInsertObservation struct {
	XMLName   xml.Name `xml:"InsertObservation"`
	Procedure string   `xml:"Observation>procedure"`
	Time      string   `xml:"Observation>samplingTime"`
	Value     *float64 `xml:"Observation>result"`
}

type xmlInsertResponse struct {
	XMLName    xml.Name `xml:"sos:InsertObservationResponse"`
	AssignedID string   `xml:"sos:AssignedObservationId"`
}

// ServeHTTP dispatches the KVP GET binding and the InsertObservation
// POST binding.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		s.insertObservation(w, r)
		return
	}
	s.serveKVP(w, r)
}

// serveKVP answers the KVP GET binding, outside the stack frame every
// InsertObservation passes through.
func (s *Service) serveKVP(w http.ResponseWriter, r *http.Request) {
	q := ogc.KVP(r.URL.Query())
	if !strings.EqualFold(q.Get("service"), "SOS") {
		writeException(w, http.StatusBadRequest, "InvalidParameterValue", "service must be SOS")
		return
	}
	switch strings.ToLower(q.Get("request")) {
	case "getcapabilities":
		s.getCapabilities(w)
	case "describesensor":
		s.describeSensor(w, q.Get("procedure"))
	case "getobservation":
		s.getObservation(w, r, q.Get("procedure"), q.Get("from"), q.Get("to"))
	default:
		writeException(w, http.StatusBadRequest, "OperationNotSupported", q.Get("request"))
	}
}

// insertBufs pools the buffer each insert reads its body into and
// appends its response to.
var insertBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// insertObservation handles the POST binding: read the bounded XML
// document, match it against the canonical shape (scanInsert) or else
// decode it with encoding/xml, validate it, and push the observation
// into the sensor network's ingest path.
func (s *Service) insertObservation(w http.ResponseWriter, r *http.Request) {
	buf := insertBufs.Get().(*bytes.Buffer)
	defer func() {
		buf.Reset()
		insertBufs.Put(buf)
	}()
	body := http.MaxBytesReader(w, r.Body, maxInsertBytes)
	_, err := buf.ReadFrom(body)
	var doc xmlInsertObservation
	ok := false
	if err == nil {
		doc, ok = scanInsert(buf.String())
	}
	if !ok {
		// The decoder sees the byte stream it would have read directly:
		// the bytes already read, then the rest of the bounded body,
		// whose reader repeats any error it stopped on.
		if doc, err = decodeInsert(io.MultiReader(bytes.NewReader(buf.Bytes()), body)); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeException(w, http.StatusRequestEntityTooLarge, "InvalidRequest",
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeException(w, http.StatusBadRequest, "InvalidRequest", "malformed InsertObservation document")
			return
		}
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
	seq, err := s.network.IngestSeq(doc.Procedure, at, *doc.Value)
	if err != nil {
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
	if !plainText(doc.Procedure) {
		writeXML(w, http.StatusOK, xmlInsertResponse{
			AssignedID: doc.Procedure + "@" + strconv.FormatUint(seq, 10),
		})
		return
	}
	// An id the encoder writes verbatim: append the document writeXML
	// would encode, reusing the request's buffer.
	buf.Reset()
	out := append(buf.AvailableBuffer(), insertResponseOpen...)
	out = append(out, doc.Procedure...)
	out = append(out, '@')
	out = strconv.AppendUint(out, seq, 10)
	out = append(out, insertResponseClose...)
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// insertResponseOpen and insertResponseClose frame the assigned id in
// the indented xmlInsertResponse document writeXML encodes.
const (
	insertResponseOpen  = xml.Header + "<sos:InsertObservationResponse>\n  <sos:AssignedObservationId>"
	insertResponseClose = "</sos:AssignedObservationId>\n</sos:InsertObservationResponse>"
)

// decodeInsert decodes an InsertObservation document with encoding/xml.
func decodeInsert(r io.Reader) (xmlInsertObservation, error) {
	var doc xmlInsertObservation
	err := xml.NewDecoder(r).Decode(&doc)
	return doc, err
}

func (s *Service) getCapabilities(w http.ResponseWriter) {
	doc := xmlCapabilities{Title: s.title, Type: "SOS"}
	for _, sn := range s.network.Sensors() {
		doc.Offerings = append(doc.Offerings, xmlOffering{
			Procedure:        sn.ID,
			ObservedProperty: sn.Kind.String(),
			UOM:              sn.Kind.Unit(),
			Catchment:        sn.CatchmentID,
			Lat:              sn.Location.Lat,
			Lon:              sn.Location.Lon,
		})
	}
	writeXML(w, http.StatusOK, doc)
}

func (s *Service) describeSensor(w http.ResponseWriter, id string) {
	sn, err := s.network.Get(id)
	if err != nil {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", "no procedure "+id)
		return
	}
	writeXML(w, http.StatusOK, xmlSensorML{
		ID: sn.ID, Kind: sn.Kind.String(), Catchment: sn.CatchmentID,
		IntervalS: sn.Interval.Seconds(),
		Lat:       sn.Location.Lat, Lon: sn.Location.Lon,
	})
}

// inclusiveEnd converts an inclusive endpoint into the service's
// half-open [from, to) window contract: the smallest representable
// instant strictly after t. Used for the default (omitted `to`) window
// so a reading stamped exactly "now" is included; an explicit `to` stays
// exclusive.
func inclusiveEnd(t time.Time) time.Time { return t.Add(time.Nanosecond) }

func (s *Service) getObservation(w http.ResponseWriter, r *http.Request, id, fromRaw, toRaw string) {
	sn, err := s.network.Get(id)
	if err != nil {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", "no procedure "+id)
		return
	}
	now := s.clk.Now()
	from := now.Add(-24 * time.Hour)
	to := inclusiveEnd(now)
	if fromRaw != "" {
		from, err = time.Parse(time.RFC3339, fromRaw)
		if err != nil {
			writeException(w, http.StatusBadRequest, "InvalidParameterValue", "bad from time")
			return
		}
	}
	if toRaw != "" {
		to, err = time.Parse(time.RFC3339, toRaw)
		if err != nil {
			writeException(w, http.StatusBadRequest, "InvalidParameterValue", "bad to time")
			return
		}
	}
	if from.After(to) {
		writeException(w, http.StatusBadRequest, "InvalidParameterValue",
			"from must not be after to")
		return
	}
	stamp, err := s.network.ReadStamp(id)
	if err != nil {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", err.Error())
		return
	}
	etag := observationTag(id, stamp.Seq, from, to)
	httpcond.Apply(w, etag, stamp.LastIngest)
	if httpcond.Match(r, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	obs, err := s.network.HistoryView(id, from, to)
	if err != nil {
		writeException(w, http.StatusNotFound, "InvalidParameterValue", err.Error())
		return
	}
	streamObservations(w, sn, obs)
}

// observationTag is a GetObservation response's ETag: the sensor, its
// ingest sequence and the window, numbers hashed as their decimal text.
func observationTag(id string, seq uint64, from, to time.Time) string {
	return httpcond.NewHash().Part("sos-observation").Part(id).Uint(seq).
		Int(from.UnixNano()).Int(to.UnixNano()).Tag()
}

// streamObservations writes an om:ObservationCollection one member at a
// time: the encoder flushes through a fixed-size buffer, so serving a
// year-long window costs the same memory as a day.
func streamObservations(w http.ResponseWriter, sn sensor.Sensor, obs []timeseries.Observation) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, xml.Header)
	bw := bufio.NewWriter(w)
	enc := xml.NewEncoder(bw)
	enc.Indent("", "  ")
	root := xml.StartElement{Name: xml.Name{Local: "om:ObservationCollection"}}
	member := xml.StartElement{Name: xml.Name{Local: "om:member"}}
	obsStart := xml.StartElement{Name: xml.Name{Local: "om:Observation"}}
	_ = enc.EncodeToken(root)
	for _, o := range obs {
		_ = enc.EncodeToken(member)
		_ = enc.EncodeElement(xmlObservation{
			Procedure: sn.ID,
			Property:  sn.Kind.String(),
			Time:      o.Time.UTC().Format(time.RFC3339),
			Value:     o.Value,
			UOM:       sn.Kind.Unit(),
		}, obsStart)
		_ = enc.EncodeToken(member.End())
	}
	_ = enc.EncodeToken(root.End())
	_ = enc.Flush()
	_ = bw.Flush()
}
