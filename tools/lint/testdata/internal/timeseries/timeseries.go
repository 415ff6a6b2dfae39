// Package timeseries declares the encoder the portal must not call.
package timeseries

// Series is a series.
type Series struct{}

// FlotJSON encodes the whole series at once.
func (s *Series) FlotJSON() []byte { return nil }
