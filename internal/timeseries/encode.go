package timeseries

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"
)

const (
	// maxFlotPair bounds one encoded pair plus its separator: '[', a
	// 20-byte int64, ',', a 24-byte shortest float64, ']' and ','.
	maxFlotPair = 48
	// flotChunk is WriteFlot's scratch size and largest single write.
	flotChunk = 4096
)

// appendFlotPair appends one [millis,value] pair: the bytes of
// strconv.AppendInt and strconv.AppendFloat(v, 'g', -1, 64), through
// the shortest.go kernels. JSON has no NaN or ±Inf, so those values are
// written as null, which Flot draws as a gap.
func appendFlotPair(buf []byte, ms int64, v float64) []byte {
	buf = append(buf, '[')
	if ms >= 0 {
		buf = appendUint(buf, uint64(ms))
	} else {
		buf = strconv.AppendInt(buf, ms, 10)
	}
	buf = append(buf, ',')
	if math.IsNaN(v) || math.IsInf(v, 0) {
		buf = append(buf, "null"...)
	} else {
		buf = appendShortest(buf, v)
	}
	return append(buf, ']')
}

// FlotJSON encodes the series as the [[millis, value], ...] pair array the
// Flot charting library consumes — the exact payload shape the EVOp portal
// returned to its hydrograph widget, NaN and ±Inf as null. The document
// is built in one allocation; the error is always nil.
func (s *Series) FlotJSON() ([]byte, error) {
	buf := make([]byte, 0, 2+maxFlotPair*len(s.values))
	buf = append(buf, '[')
	for i, v := range s.values {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFlotPair(buf, s.TimeAt(i).UnixMilli(), v)
	}
	return append(buf, ']'), nil
}

// WriteFlot writes the series to w as the document FlotJSON returns,
// through the same fixed scratch chunk as the package-level WriteFlot:
// memory is O(1) in the series length.
func (s *Series) WriteFlot(w io.Writer) error {
	base, ok := s.unixNanoBase()
	if !ok {
		return writeFlot(w, len(s.values), func(i int) (int64, float64) {
			return s.TimeAt(i).UnixMilli(), s.values[i]
		})
	}
	step := int64(s.step)
	return writeFlot(w, len(s.values), func(i int) (int64, float64) {
		ns := base + int64(i)*step
		ms := ns / 1e6
		if ms*1e6 > ns {
			ms-- // floor, as UnixMilli rounds stamps before 1970
		}
		return ms, s.values[i]
	})
}

// unixNanoBase returns the start's Unix time in nanoseconds and whether
// every stamp start + i·step fits an int64 of them (i·step included);
// then TimeAt(i).UnixMilli() is that sum divided by 10^6, rounded down.
func (s *Series) unixNanoBase() (int64, bool) {
	base := s.start.UnixNano()
	last, step := int64(max(len(s.values)-1, 0)), int64(s.step)
	return base, time.Unix(0, base).Equal(s.start) &&
		last <= math.MaxInt64/step && base <= math.MaxInt64-last*step
}

// WriteFlot writes obs to w as the same [[millis, value], ...] document
// FlotJSON produces, through a fixed scratch buffer: memory is O(1) in
// len(obs) and obs is never copied.
func WriteFlot(w io.Writer, obs []Observation) error {
	return writeFlot(w, len(obs), func(i int) (int64, float64) {
		return obs[i].Time.UnixMilli(), obs[i].Value
	})
}

// flotChunks recycles writeFlot's scratch chunk across calls and
// goroutines. An io.Writer must not retain the slice it is given, so a
// chunk is free again once its last write returns.
var flotChunks = sync.Pool{New: func() any {
	buf := make([]byte, 0, flotChunk)
	return &buf
}}

// writeFlot is both writers' chunk loop: the n pairs pair(0..n-1) go
// to w in writes of at most flotChunk bytes, from one pooled chunk. It
// returns the first write error and writes nothing after it.
func writeFlot(w io.Writer, n int, pair func(i int) (int64, float64)) error {
	chunk := flotChunks.Get().(*[]byte)
	defer flotChunks.Put(chunk)
	buf := append((*chunk)[:0], '[')
	for i := 0; i < n; i++ {
		if len(buf) >= flotChunk-maxFlotPair {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		ms, v := pair(i)
		buf = appendFlotPair(buf, ms, v)
	}
	_, err := w.Write(append(buf, ']'))
	return err
}

// ParseFlotJSON decodes a [[millis, value], ...] payload into an Irregular
// sequence (the inverse need not assume a fixed step). null values become
// NaN.
func ParseFlotJSON(data []byte) (*Irregular, error) {
	var pairs [][2]*float64
	if err := json.Unmarshal(data, &pairs); err != nil {
		return nil, fmt.Errorf("parsing flot payload: %w", err)
	}
	obs := make([]Observation, 0, len(pairs))
	for i, p := range pairs {
		if p[0] == nil {
			return nil, fmt.Errorf("parsing flot payload: pair %d has null timestamp", i)
		}
		v := math.NaN()
		if p[1] != nil {
			v = *p[1]
		}
		obs = append(obs, Observation{Time: time.UnixMilli(int64(*p[0])).UTC(), Value: v})
	}
	return NewIrregular(obs), nil
}

// WriteCSV writes the series as "time,value" rows in RFC 3339 time, the
// export format evop-gen produces. NaN values are written as empty fields.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "value"}); err != nil {
		return fmt.Errorf("writing csv header: %w", err)
	}
	for i, v := range s.values {
		val := ""
		if !math.IsNaN(v) {
			val = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write([]string{s.TimeAt(i).Format(time.RFC3339), val}); err != nil {
			return fmt.Errorf("writing csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("flushing csv: %w", err)
	}
	return nil
}

// ReadCSV parses a "time,value" CSV (as written by WriteCSV) into a Series
// with the given step; rows must be contiguous at that step. Empty value
// fields become NaN.
func ReadCSV(r io.Reader, step time.Duration) (*Series, error) {
	if step <= 0 {
		return nil, ErrBadStep
	}
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading csv: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("reading csv: no data rows: %w", ErrEmpty)
	}
	var start time.Time
	vals := make([]float64, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 2 {
			return nil, fmt.Errorf("csv row %d: want 2 fields, got %d", i+1, len(row))
		}
		t, err := time.Parse(time.RFC3339, row[0])
		if err != nil {
			return nil, fmt.Errorf("csv row %d time: %w", i+1, err)
		}
		if i == 0 {
			start = t
		} else if want := start.Add(time.Duration(i) * step); !t.Equal(want) {
			return nil, fmt.Errorf("csv row %d at %v, want %v: %w", i+1, t, want, ErrStepMismatch)
		}
		v := math.NaN()
		if row[1] != "" {
			v, err = strconv.ParseFloat(row[1], 64)
			if err != nil {
				return nil, fmt.Errorf("csv row %d value: %w", i+1, err)
			}
		}
		vals = append(vals, v)
	}
	return New(start, step, vals)
}

// MarshalJSON encodes the series as a self-describing object
// {"start": ..., "stepSeconds": ..., "values": [...]} with NaN as null.
func (s *Series) MarshalJSON() ([]byte, error) {
	vals := make([]*float64, len(s.values))
	for i := range s.values {
		if !math.IsNaN(s.values[i]) {
			v := s.values[i]
			vals[i] = &v
		}
	}
	return json.Marshal(struct {
		Start       time.Time  `json:"start"`
		StepSeconds float64    `json:"stepSeconds"`
		Values      []*float64 `json:"values"`
	}{s.start, s.step.Seconds(), vals})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (s *Series) UnmarshalJSON(data []byte) error {
	var raw struct {
		Start       time.Time  `json:"start"`
		StepSeconds float64    `json:"stepSeconds"`
		Values      []*float64 `json:"values"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("parsing series: %w", err)
	}
	step := time.Duration(raw.StepSeconds * float64(time.Second))
	if step <= 0 {
		return ErrBadStep
	}
	vals := make([]float64, len(raw.Values))
	for i, p := range raw.Values {
		if p == nil {
			vals[i] = math.NaN()
		} else {
			vals[i] = *p
		}
	}
	s.start = raw.Start.UTC()
	s.step = step
	s.values = vals
	return nil
}
