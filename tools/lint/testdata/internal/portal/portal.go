// Package portal buffers a Flot document and checks a method by hand.
package portal

import (
	"net/http"

	"lintdata/internal/timeseries"
)

// Handle writes the series.
func Handle(w http.ResponseWriter, r *http.Request, s *timeseries.Series) {
	if r.Method == http.MethodGet { // want method Handle
		w.Write(s.FlotJSON()) // want flot Handle
	}
}
