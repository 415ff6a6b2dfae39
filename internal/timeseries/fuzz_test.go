package timeseries

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzParseFlotJSON hardens the widget payload parser: arbitrary bytes
// must never panic, and valid output must re-encode.
func FuzzParseFlotJSON(f *testing.F) {
	s := MustNew(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC), time.Hour, []float64{1, 2.5, -3})
	seed, err := s.FlotJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`[[0,null]]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[[1,2],[3]]`))
	f.Add([]byte(`{"not":"flot"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ir, err := ParseFlotJSON(data)
		if err != nil {
			return
		}
		// Parsed observations must be time-ordered (NewIrregular sorts).
		for i := 1; i < ir.Len(); i++ {
			if ir.At(i).Time.Before(ir.At(i - 1).Time) {
				t.Fatal("parsed observations out of order")
			}
		}
	})
}

// FuzzFlotEncode is the Flot encoder's differential fuzzer: every 8 bytes
// are one float64 bit pattern (NaN payloads, ±Inf, subnormals, ±0 all
// reachable). The document must be valid JSON, parse back with every
// finite value bit-exact and every non-finite one as NaN, and match the
// reference encoder whenever the reference can encode it (no ±Inf).
// Series.WriteFlot must stream the same bytes.
func FuzzFlotEncode(f *testing.F) {
	bits := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bits(1, 2.5, -3), uint16(60))
	f.Add(bits(math.NaN(), math.Inf(1), math.Inf(-1)), uint16(1))
	f.Add(bits(math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.MaxFloat64), uint16(65535))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, stepSec uint16) {
		vals := make([]float64, len(data)/8)
		finite := true
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			finite = finite && !math.IsInf(vals[i], 0)
		}
		s := MustNew(time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC), time.Duration(stepSec)*time.Second+time.Second, vals)
		doc, err := s.FlotJSON()
		if err != nil {
			t.Fatalf("FlotJSON: %v", err)
		}
		if !json.Valid(doc) {
			t.Fatalf("invalid JSON: %s", doc)
		}
		var streamed bytes.Buffer
		if err := s.WriteFlot(&streamed); err != nil {
			t.Fatalf("WriteFlot: %v", err)
		}
		if !bytes.Equal(streamed.Bytes(), doc) {
			t.Fatalf("WriteFlot %s, FlotJSON %s", streamed.Bytes(), doc)
		}
		ir, err := ParseFlotJSON(doc)
		if err != nil {
			t.Fatalf("ParseFlotJSON: %v", err)
		}
		if ir.Len() != len(vals) {
			t.Fatalf("parsed %d pairs, want %d", ir.Len(), len(vals))
		}
		for i, v := range vals {
			o := ir.At(i)
			if !o.Time.Equal(s.TimeAt(i)) {
				t.Fatalf("pair %d time = %v, want %v", i, o.Time, s.TimeAt(i))
			}
			nonFinite := math.IsNaN(v) || math.IsInf(v, 0)
			if nonFinite && !math.IsNaN(o.Value) {
				t.Fatalf("pair %d: %v parsed as %v, want NaN", i, v, o.Value)
			}
			if !nonFinite && math.Float64bits(o.Value) != math.Float64bits(v) {
				t.Fatalf("pair %d: %v parsed as %v", i, v, o.Value)
			}
		}
		if finite {
			want, err := flotJSONReference(s)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if !bytes.Equal(doc, want) {
				t.Fatalf("FlotJSON %s, reference %s", doc, want)
			}
		}
	})
}

// FuzzAppendShortest is the number kernel's differential fuzzer: every
// 8 bytes are one float64 bit pattern, and appendShortest must append
// exactly what strconv.AppendFloat(…, 'g', -1, 64) does.
func FuzzAppendShortest(f *testing.F) {
	for _, v := range []float64{0.1, 1e-4, 999999.9999999999, 0x1p-1022, math.MaxFloat64, 2.5} {
		f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want []byte
		for len(data) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			got = appendShortest(got[:0], v)
			want = strconv.AppendFloat(want[:0], v, 'g', -1, 64)
			if !bytes.Equal(got, want) {
				t.Fatalf("appendShortest(%#016x) = %s, strconv %s", math.Float64bits(v), got, want)
			}
		}
	})
}

// FuzzRollupVsNaive is the rollup differential fuzzer: arbitrary ingest
// orders, cadences and query windows must make the indexed
// AggregateWindow, and every bucket of AggregateSeries over the same
// input, agree with the reference AggregateScan — exactly for
// min/max/count, up to float association order for sum. mode picks the
// tier ladder (bit 0: the portal's 1m/15m/6h or the sensors'
// 15m/6h/120h) and the base instant (bits 1-2, some before 1970);
// stepRaw spans 1 ns to over a year.
func FuzzRollupVsNaive(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), uint16(600), uint32(0x000d_1000), uint8(12), uint8(0))
	f.Add([]byte{255, 0, 255, 0}, uint16(30), uint16(1), uint32(0), uint8(255), uint8(2))
	f.Add([]byte{}, uint16(0), uint16(0), uint32(0), uint8(0), uint8(0))
	wide := make([]byte, 0, 1200)
	for i := 0; i < 600; i++ {
		wide = append(wide, byte(3*i), byte(i*7))
	}
	f.Add(wide, uint16(7), uint16(9000), uint32(0x1e_5ba1), uint8(9), uint8(1))
	f.Add(wide, uint16(113), uint16(40000), uint32(0x1a_4f1b), uint8(40), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, fromMin, widthMin uint16, stepRaw uint32, n, mode uint8) {
		bases := []time.Time{
			time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1969, 12, 30, 21, 7, 13, 0, time.UTC), // straddles the epoch, off every grid
			time.Date(1903, 2, 11, 5, 0, 0, 0, time.UTC),
			time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		}
		ladders := [][]time.Duration{
			{time.Minute, 15 * time.Minute, 6 * time.Hour},
			{15 * time.Minute, 6 * time.Hour, 120 * time.Hour},
		}
		base, ladder := bases[mode>>1&3], ladders[mode&1]
		// Coarser ladders get proportionally sparser readings, so short
		// inputs still span several of their tiers.
		unit := ladder[0] / time.Minute
		ir := NewIrregular(nil)
		if err := ir.EnableRollups(ladder...); err != nil {
			t.Fatalf("EnableRollups: %v", err)
		}
		// Each byte pair is one observation: offset (possibly out of
		// order, sub-minute granularity) and a signed value.
		for i := 0; i+1 < len(data); i += 2 {
			off := time.Duration(data[i]) * 17 * time.Second * unit
			if data[i]%3 == 0 {
				off += time.Duration(i) * time.Minute * unit // march forward so long inputs span tiers
			}
			ir.Add(Observation{Time: base.Add(off), Value: float64(int(data[i+1]) - 128)})
		}
		check := func(got, want Aggregate, what string) {
			t.Helper()
			if got.Count != want.Count {
				t.Fatalf("%s: Count = %d, want %d", what, got.Count, want.Count)
			}
			if want.Count > 0 && (got.Min != want.Min || got.Max != want.Max) {
				t.Fatalf("%s: Min/Max = %v/%v, want %v/%v", what, got.Min, got.Max, want.Min, want.Max)
			}
			if diff := got.Sum - want.Sum; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%s: Sum = %v, want %v", what, got.Sum, want.Sum)
			}
		}
		from := base.Add((time.Duration(fromMin)*time.Minute - 2*time.Hour) * unit)
		to := from.Add(time.Duration(widthMin) * time.Minute * unit)
		check(ir.AggregateWindow(from, to), ir.AggregateScan(from, to), "window")

		// step: a 16-bit mantissa shifted by up to 39 bits, 1 ns to ~416 d.
		step := time.Duration(stepRaw&0xffff+1) << (stepRaw >> 16 % 40)
		got, err := ir.AggregateSeries(from, step, int(n))
		if err != nil {
			t.Fatalf("AggregateSeries: %v", err)
		}
		if len(got) != int(n) {
			t.Fatalf("AggregateSeries returned %d buckets, want %d", len(got), n)
		}
		for i, a := range got {
			lo := from.Add(time.Duration(i) * step)
			check(a, ir.AggregateScan(lo, lo.Add(step)), fmt.Sprintf("bucket %d of %v", i, step))
		}
	})
}

// FuzzReadCSV hardens the dataset-upload parser.
func FuzzReadCSV(f *testing.F) {
	f.Add("time,value\n2019-07-01T00:00:00Z,1\n2019-07-01T01:00:00Z,\n")
	f.Add("time,value\nnot-a-time,1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		s, err := ReadCSV(strings.NewReader(data), time.Hour)
		if err != nil {
			return
		}
		if s.Len() == 0 {
			t.Fatal("ReadCSV returned an empty series without error")
		}
	})
}
