package wps

import (
	"encoding/xml"
	"net/http"
	"sort"
	"strings"
)

// executeResponse is one wps:ExecuteResponse document: a synchronous or
// accepted asynchronous Execute answer, or a GetStatus. It is appended
// by hand rather than marshalled, so a series output streams from the
// process's *timeseries.Series into the response through WriteFlot and
// is never held as text. The bytes are those encoding/xml writes for
// the document's struct form with a two-space indent (FuzzExecuteResponse
// keeps that encoder as its oracle), quirks included: an empty
// executionId and an empty message are left out, and a document without
// outputs still carries an empty wps:ProcessOutputs element.
type executeResponse struct {
	executionID string
	process     string
	status      string
	message     string
	outputs     map[string]Value
}

// write sends the document with status 200. A write error means the
// client is gone, so the rest of the document is dropped.
func (d executeResponse) write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/xml")
	w.WriteHeader(http.StatusOK)
	b := make([]byte, 0, 1024)
	b = append(b, xml.Header...)
	b = append(b, "<wps:ExecuteResponse"...)
	if d.executionID != "" {
		b = append(b, ` executionId="`...)
		b = appendEscaped(b, d.executionID)
		b = append(b, '"')
	}
	b = append(b, ">\n  <wps:Process>\n    <ows:Identifier>"...)
	b = appendEscaped(b, d.process)
	b = append(b, "</ows:Identifier>\n  </wps:Process>\n  <wps:Status>\n    <wps:Value>"...)
	b = appendEscaped(b, d.status)
	b = append(b, "</wps:Value>"...)
	if d.message != "" {
		b = append(b, "\n    <wps:Message>"...)
		b = appendEscaped(b, d.message)
		b = append(b, "</wps:Message>"...)
	}
	b = append(b, "\n  </wps:Status>\n  <wps:ProcessOutputs>"...)
	if len(d.outputs) == 0 {
		w.Write(append(b, "</wps:ProcessOutputs>\n</wps:ExecuteResponse>"...))
		return
	}
	keys := make([]string, 0, len(d.outputs))
	for k := range d.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = append(b, "\n    <wps:Output>\n      <ows:Identifier>"...)
		b = appendEscaped(b, k)
		b = append(b, "</ows:Identifier>\n      <wps:Data>\n        <wps:LiteralData>"...)
		if s := d.outputs[k].Series(); s != nil {
			// Flot text is digits, "[],.-+e" and null: nothing to escape.
			if _, err := w.Write(b); err != nil {
				return
			}
			if err := s.WriteFlot(w); err != nil {
				return
			}
			b = b[:0]
		} else {
			b = appendEscaped(b, d.outputs[k].lit)
		}
		b = append(b, "</wps:LiteralData>\n      </wps:Data>\n    </wps:Output>"...)
	}
	w.Write(append(b, "\n  </wps:ProcessOutputs>\n</wps:ExecuteResponse>"...))
}

// appendEscaped appends s escaped as xml.EscapeText escapes it, which
// is how encoding/xml escapes character data and attribute values. Text
// of printable ASCII without markup characters is appended as is; any
// other goes through xml.EscapeText itself.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || strings.IndexByte(`"'&<>`, c) >= 0 {
			a := appender(dst)
			_ = xml.EscapeText(&a, []byte(s))
			return a
		}
	}
	return append(dst, s...)
}

// appender is an io.Writer appending to a byte slice.
type appender []byte

func (a *appender) Write(p []byte) (int, error) {
	*a = append(*a, p...)
	return len(p), nil
}
