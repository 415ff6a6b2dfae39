package timeseries

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// flotJSONReference is the original FlotJSON: one json.RawMessage pair
// per point, then json.Marshal. It fails on ±Inf; on finite and NaN
// samples FlotJSON must match it byte for byte.
func flotJSONReference(s *Series) ([]byte, error) {
	pairs := make([][2]json.RawMessage, s.Len())
	for i, v := range s.Values() {
		ms := strconv.FormatInt(s.TimeAt(i).UnixMilli(), 10)
		val := "null"
		if !math.IsNaN(v) {
			val = strconv.FormatFloat(v, 'g', -1, 64)
		}
		pairs[i] = [2]json.RawMessage{json.RawMessage(ms), json.RawMessage(val)}
	}
	return json.Marshal(pairs)
}

func TestFlotJSONRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		vals []float64
	}{
		{"finite and NaN", []float64{1.5, math.NaN(), 3}},
		{"+Inf", []float64{1.5, math.Inf(1), 3}},
		{"-Inf", []float64{1.5, math.Inf(-1), 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(t0, time.Hour, tc.vals)
			data, err := s.FlotJSON()
			if err != nil {
				t.Fatalf("FlotJSON: %v", err)
			}
			if !strings.Contains(string(data), ",null]") {
				t.Fatalf("non-finite sample not encoded as null: %s", data)
			}
			ir, err := ParseFlotJSON(data)
			if err != nil {
				t.Fatalf("ParseFlotJSON: %v", err)
			}
			if ir.Len() != 3 {
				t.Fatalf("round-trip len = %d", ir.Len())
			}
			if got := ir.At(0); !got.Time.Equal(t0) || got.Value != 1.5 {
				t.Fatalf("round-trip obs[0] = %+v", got)
			}
			if !math.IsNaN(ir.At(1).Value) {
				t.Fatalf("round-trip null = %v, want NaN", ir.At(1).Value)
			}
			if got := ir.At(2).Value; got != 3 {
				t.Fatalf("round-trip obs[2] = %v, want 3", got)
			}
		})
	}
}

// TestWriteFlotMatchesFlotJSON checks both streamed documents, across
// many scratch-buffer flushes, equal the one-shot encoding, and that no
// write exceeds the scratch size even when every pair has the widest
// possible stamp and value.
func TestWriteFlotMatchesFlotJSON(t *testing.T) {
	typical := make([]float64, 10000)
	for i := range typical {
		typical[i] = math.Sin(float64(i)) * 1e3
	}
	typical[7], typical[4000], typical[9999] = math.NaN(), math.Inf(1), math.Inf(-1)
	widest := make([]float64, 1000)
	for i := range widest {
		widest[i] = -2.2250738585072014e-308
	}
	for _, s := range []*Series{
		MustNew(t0, time.Minute, typical),
		MustNew(time.UnixMilli(math.MinInt64), time.Millisecond, widest),
	} {
		want, _ := s.FlotJSON()
		if cap(want) > 2+maxFlotPair*s.Len() {
			t.Fatalf("FlotJSON outgrew its %d-byte estimate", 2+maxFlotPair*s.Len())
		}
		for name, write := range flotWriters(s) {
			var cw chunkWriter
			if err := write(&cw); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(cw.Bytes(), want) {
				t.Fatalf("%s document differs from FlotJSON", name)
			}
			if cw.largest > flotChunk {
				t.Fatalf("%s wrote a %d-byte chunk, want at most %d", name, cw.largest, flotChunk)
			}
		}
	}
}

// TestWriteFlotStopsAtFirstError checks both writers return the first
// write error as is and write nothing after it, wherever in the
// document it strikes.
func TestWriteFlotStopsAtFirstError(t *testing.T) {
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = math.Sin(float64(i)) * 1e3
	}
	s := MustNew(t0, time.Minute, vals)
	all := failWriter{failAt: math.MaxInt}
	if err := s.WriteFlot(&all); err != nil {
		t.Fatalf("WriteFlot: %v", err)
	}
	for name, write := range flotWriters(s) {
		for failAt := 1; failAt <= all.writes; failAt++ {
			fw := failWriter{failAt: failAt}
			if err := write(&fw); err != io.ErrClosedPipe {
				t.Fatalf("%s failing at write %d: err = %v, want %v", name, failAt, err, io.ErrClosedPipe)
			}
			if fw.writes != failAt {
				t.Fatalf("%s failing at write %d: %d writes, want none after the error", name, failAt, fw.writes)
			}
		}
	}
}

// TestWriteFlotConcurrent: writers on several goroutines at once share
// the chunk pool, yet each document equals its FlotJSON; run it under
// -race.
func TestWriteFlotConcurrent(t *testing.T) {
	const goroutines, rounds = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		vals := make([]float64, 300+700*g)
		for i := range vals {
			vals[i] = float64(g)*1e6 + math.Sin(float64(i))
		}
		s := MustNew(t0, time.Minute, vals)
		want, _ := s.FlotJSON()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for name, write := range flotWriters(s) {
					var b bytes.Buffer
					if err := write(&b); err != nil {
						t.Errorf("goroutine %d: %s: %v", g, name, err)
						return
					}
					if !bytes.Equal(b.Bytes(), want) {
						t.Errorf("goroutine %d round %d: %s document differs from FlotJSON", g, r, name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// flotWriters names the two streaming encoders of s's document.
func flotWriters(s *Series) map[string]func(io.Writer) error {
	return map[string]func(io.Writer) error{
		"Series.WriteFlot": s.WriteFlot,
		"WriteFlot":        func(w io.Writer) error { return WriteFlot(w, seriesObs(s)) },
	}
}

// seriesObs lists a series' samples as observations.
func seriesObs(s *Series) []Observation {
	obs := make([]Observation, s.Len())
	for i := range obs {
		obs[i] = Observation{Time: s.TimeAt(i), Value: s.At(i)}
	}
	return obs
}

// chunkWriter records the largest single Write it receives.
type chunkWriter struct {
	bytes.Buffer
	largest int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

// failWriter fails its failAt-th Write and every one after it,
// counting them all.
type failWriter struct {
	failAt, writes int
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes >= f.failAt {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

// TestFlotJSONAllocs pins FlotJSON to one fixed allocation count
// whatever the series length (the per-point encoder it replaced made ~4
// per sample).
func TestFlotJSONAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = -1.2345678901234567e-300 * float64(i)
		}
		s := MustNew(t0, time.Minute, vals)
		return testing.AllocsPerRun(20, func() {
			if _, err := s.FlotJSON(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(10000)
	if small != large || large > 1 {
		t.Fatalf("FlotJSON allocs = %.1f at 10 points, %.1f at 10,000; want the same count, at most 1", small, large)
	}
}

func TestParseFlotJSONErrors(t *testing.T) {
	if _, err := ParseFlotJSON([]byte(`{"not":"array"}`)); err == nil {
		t.Fatal("want error for non-array payload")
	}
	if _, err := ParseFlotJSON([]byte(`[[null, 1]]`)); err == nil {
		t.Fatal("want error for null timestamp")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := MustNew(t0, 15*time.Minute, []float64{0.5, math.NaN(), 2})
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, 15*time.Minute)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !got.Start().Equal(s.Start()) || got.Len() != s.Len() {
		t.Fatalf("round-trip start=%v len=%d", got.Start(), got.Len())
	}
	if got.At(0) != 0.5 || !math.IsNaN(got.At(1)) || got.At(2) != 2 {
		t.Fatalf("round-trip values = %v", got.Values())
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
		step time.Duration
	}{
		{"bad step", "time,value\n", 0},
		{"no rows", "time,value\n", time.Hour},
		{"bad time", "time,value\nnot-a-time,1\n", time.Hour},
		{"bad value", "time,value\n2019-07-01T00:00:00Z,abc\n", time.Hour},
		{"gap in rows", "time,value\n2019-07-01T00:00:00Z,1\n2019-07-01T02:00:00Z,2\n", time.Hour},
		{"wrong fields", "time,value\n2019-07-01T00:00:00Z,1,extra\n", time.Hour},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(tc.in), tc.step); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	s := MustNew(t0, 30*time.Minute, []float64{1, math.NaN(), -2.5})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var got Series
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Start().Equal(s.Start()) || got.Step() != s.Step() || got.Len() != s.Len() {
		t.Fatalf("round-trip meta: start=%v step=%v len=%d", got.Start(), got.Step(), got.Len())
	}
	if got.At(0) != 1 || !math.IsNaN(got.At(1)) || got.At(2) != -2.5 {
		t.Fatalf("round-trip values = %v", got.Values())
	}
}

func TestSeriesUnmarshalErrors(t *testing.T) {
	var s Series
	if err := json.Unmarshal([]byte(`{"start":"2019-07-01T00:00:00Z","stepSeconds":0,"values":[]}`), &s); err == nil {
		t.Fatal("want error for zero step")
	}
	if err := json.Unmarshal([]byte(`"nope"`), &s); err == nil {
		t.Fatal("want error for wrong JSON shape")
	}
}

func TestFlotJSONPropertyRoundTrip(t *testing.T) {
	// Property: FlotJSON is byte-identical to the reference encoder, and
	// FlotJSON -> ParseFlotJSON preserves every sample's time and value
	// (NaN as NaN).
	f := func(raw []int32) bool {
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r) / 100
			if r%7 == 0 {
				vals[i] = math.NaN()
			}
		}
		s := MustNew(t0, time.Minute, vals)
		data, err := s.FlotJSON()
		if err != nil {
			return false
		}
		if want, err := flotJSONReference(s); err != nil || !bytes.Equal(data, want) {
			return false
		}
		ir, err := ParseFlotJSON(data)
		if err != nil {
			return false
		}
		if ir.Len() != s.Len() {
			return false
		}
		for i := 0; i < s.Len(); i++ {
			o := ir.At(i)
			if !o.Time.Equal(s.TimeAt(i)) {
				return false
			}
			if v := s.At(i); math.IsNaN(v) != math.IsNaN(o.Value) || (!math.IsNaN(v) && o.Value != v) {
				return false
			}
		}
		return true
	}
	if !f(nil) {
		t.Fatal("empty series: FlotJSON differs from the reference")
	}
	if data, _ := MustNew(t0, time.Minute, nil).FlotJSON(); string(data) != "[]" {
		t.Fatalf("empty series = %q, want []", data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFlotStampsMatchTimeAt checks Series.WriteFlot's integer
// stamps against TimeAt(i).UnixMilli() where they are easiest to get
// wrong: before 1970 with sub-millisecond offsets, steps that are not
// whole milliseconds, and series that end just inside, or run past, the
// int64-nanosecond range, where WriteFlot falls back to TimeAt.
func TestWriteFlotStampsMatchTimeAt(t *testing.T) {
	const n = 50
	edge := func(step time.Duration, over int64) time.Time {
		return time.Unix(0, math.MaxInt64-int64(step)*(n-1)+over)
	}
	tests := []struct {
		name  string
		start time.Time
		step  time.Duration
		n     int
	}{
		{"pre-1970 sub-ms", time.Unix(0, -25*int64(time.Millisecond)-1), 333 * time.Microsecond, n},
		{"crosses the epoch", time.Unix(0, -7*int64(time.Second)+5), 1500 * time.Microsecond, n},
		{"nanosecond step", time.Unix(0, -3), time.Nanosecond, n},
		{"ends at max int64 ns", edge(time.Hour, 0), time.Hour, n},
		{"runs past max int64 ns", edge(time.Hour, 1), time.Hour, n},
		// Nine steps of MaxInt64/4 ns wrap round to 2.3e18 ns, small
		// enough to pass an end-of-range check on the wrapped span, yet
		// stamp 4 is already past the int64 range.
		{"step product wraps", t0, time.Duration(math.MaxInt64 / 4), 10},
		{"before 1678", time.Date(1500, 1, 1, 0, 0, 0, 1, time.UTC), time.Minute, n},
		{"after 2262", time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC), 7 * time.Millisecond, n},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(tc.start, tc.step, make([]float64, tc.n))
			var got bytes.Buffer
			if err := s.WriteFlot(&got); err != nil {
				t.Fatal(err)
			}
			want := []byte{'['}
			for i := 0; i < tc.n; i++ {
				if i > 0 {
					want = append(want, ',')
				}
				want = append(want, '[')
				want = strconv.AppendInt(want, s.TimeAt(i).UnixMilli(), 10)
				want = append(want, ",0]"...)
			}
			want = append(want, ']')
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteFlot stamps differ from TimeAt:\n got %s\nwant %s", got.Bytes(), want)
			}
		})
	}
}
