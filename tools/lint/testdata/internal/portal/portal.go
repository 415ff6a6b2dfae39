// Package portal buffers a Flot document, checks a method by hand and
// keys its headers in two spellings.
package portal

import (
	"net/http"

	"lintdata/internal/timeseries"
)

// Handle writes the series.
func Handle(w http.ResponseWriter, r *http.Request, s *timeseries.Series) {
	w.Header()["X-Request-Id"] = r.Header["X-Request-ID"] // want header Handle
	w.Header().Set("ETag", `"1"`)                         // want header Handle
	if r.Method == http.MethodGet {                       // want method Handle
		w.Write(s.FlotJSON()) // want flot Handle
	}
}
