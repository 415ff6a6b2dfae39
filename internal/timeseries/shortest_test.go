package timeseries

import (
	"bytes"
	"math"
	"math/big"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
)

// shortestBoundaries lists the float64s where a shortest-digit kernel
// goes wrong first: zeros, subnormal and normal extremes, every power of
// two (significand exactly 2^52, whose interval is three quarters of
// the usual) and of ten with both neighbours, both sides of the 'g'
// verb's %f limits 1e-4 and 1e6, integers and one-digit values.
func shortestBoundaries() []float64 {
	vs := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1022,
		math.Nextafter(0x1p-1022, 0), math.Nextafter(0x1p-1022, 1),
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		1<<53 - 1, 1 << 53, 1<<53 + 2, 999999, 999999.5, 1e6 - 1e-10,
		9.9999e-5, 0.000100001, 5e-324, 1.7976931348623157e308,
	}
	for e := -1074; e <= 1023; e++ {
		vs = append(vs, math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		vs = append(vs, math.Pow(10, float64(e)))
	}
	for _, v := range []float64{1e-4, 1e6, 1e-5, 1e7} {
		for _, m := range []float64{1, 1.5, 3, 5, 9.5} {
			vs = append(vs, v*m, v/m)
		}
	}
	for i := 0; i <= 2000; i++ {
		vs = append(vs, float64(i), float64(i)*1000+1, float64(i)*0.5)
	}
	for d := 1; d <= 9; d++ {
		for e := -12; e <= 12; e++ {
			vs = append(vs, float64(d)*math.Pow(10, float64(e)))
		}
	}
	// (1 + 2^-p)·2^a ends in a 5 at its last decimal place; where that
	// is the 18th significant digit, two 17-digit decimals tie, as for
	// 1.00000762939453125 (p = 17, a = 0), and the even one is chosen.
	for p := 1; p <= 60; p++ {
		for a := -30; a <= 60; a++ {
			vs = append(vs, math.Ldexp(1+math.Ldexp(1, -p), a), math.Ldexp(1+math.Ldexp(3, -p), a))
		}
	}
	// Neighbours of every value so far, then the negatives of all.
	n := len(vs)
	for _, v := range vs[:n] {
		vs = append(vs, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for _, v := range vs[:3*n] {
		vs = append(vs, -v)
	}
	return vs
}

// TestAppendShortestMatchesStrconv is the kernel's oracle: it must equal
// strconv's 'g' shortest form byte for byte on the boundary set, on a
// seeded million random bit patterns and on a million values across the
// hydrograph range [1e-5, 1e7), half with few significant digits as
// gauges report them. For a normal value the Schubfach digits and
// exponent must also equal strconv's 'e' form: outside the %f range
// appendShortest leaves the layout to strconv, but its digit kernel is
// checked there too.
func TestAppendShortestMatchesStrconv(t *testing.T) {
	got, want := make([]byte, 0, 32), make([]byte, 0, 32)
	check := func(v float64) {
		got = appendShortest(got[:0], v)
		want = strconv.AppendFloat(want[:0], v, 'g', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendShortest(%#016x) = %s, strconv %s", math.Float64bits(v), got, want)
		}
		b := math.Float64bits(v)
		be := int(b>>52) & 0x7ff
		if be == 0 || be == 0x7ff {
			return
		}
		f, k := shortestDecimal(b&(1<<52-1)|1<<52, be-1075)
		for f%10 == 0 {
			f, k = f/10, k+1
		}
		got = strconv.AppendUint(got[:0], f, 10)
		k += len(got) - 1
		if len(got) > 1 {
			got = slices.Insert(got, 1, '.')
		}
		got = append(got, 'e', '+')
		if k < 0 {
			got[len(got)-1], k = '-', -k
		}
		if k < 10 {
			got = append(got, '0')
		}
		got = strconv.AppendInt(got, int64(k), 10)
		if want = strconv.AppendFloat(want[:0], math.Abs(v), 'e', -1, 64); !bytes.Equal(got, want) {
			t.Fatalf("shortestDecimal(%#016x) = %s, strconv %s", b, got, want)
		}
	}
	for _, v := range shortestBoundaries() {
		check(v)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
	for i := 0; i < 1_000_000; i++ {
		v := math.Pow(10, -5+12*rng.Float64())
		if i%2 == 1 {
			v = float64(rng.IntN(10_000_000)) / math.Pow(10, float64(rng.IntN(10)))
		}
		check(v)
	}
}

// TestAppendShortestAllocs pins the kernel to no allocation on both
// its paths.
func TestAppendShortestAllocs(t *testing.T) {
	buf := make([]byte, 0, 32)
	for _, v := range []float64{0.12345678901234567, -2.5e-300, 42} {
		if n := testing.AllocsPerRun(100, func() { buf = appendShortest(buf[:0], v) }); n != 0 {
			t.Fatalf("appendShortest(%v) allocs = %v, want 0", v, n)
		}
	}
}

// TestAppendUintMatchesStrconv checks the two-digit emitter at every
// digit count and the uint64 extremes.
func TestAppendUintMatchesStrconv(t *testing.T) {
	us := []uint64{0, 9, 10, 99, 100, 1e8 - 1, 1e8, 1e16, math.MaxInt64, math.MaxUint64}
	for u := uint64(1); u < math.MaxUint64/10; u *= 10 {
		us = append(us, u-1, u, u+1, 7*u+3)
	}
	for _, u := range us {
		if got, want := appendUint(nil, u), strconv.AppendUint(nil, u, 10); !bytes.Equal(got, want) {
			t.Fatalf("appendUint(%d) = %s, want %s", u, got, want)
		}
	}
}

// cmpPow2Pow10 compares m·2^a with 10^b exactly.
func cmpPow2Pow10(m int64, a, b int) int {
	two, ten := big.NewInt(2), big.NewInt(10)
	pow := func(x *big.Int, e int) *big.Int { return new(big.Int).Exp(x, big.NewInt(int64(max(e, 0))), nil) }
	lhs := new(big.Int).Mul(big.NewInt(m), pow(two, a))
	lhs.Mul(lhs, pow(ten, -b))
	rhs := new(big.Int).Mul(pow(ten, b), pow(two, -a))
	return lhs.Cmp(rhs)
}

// TestShortestFloorLogs checks the kernel's integer floor-log formulas
// and its power-of-ten table against exact big-integer arithmetic over
// every exponent a float64 can reach.
func TestShortestFloorLogs(t *testing.T) {
	for q := -1074; q <= 971; q++ {
		k := flog10pow2(q)
		if cmpPow2Pow10(1, q, k) < 0 || cmpPow2Pow10(1, q, k+1) >= 0 {
			t.Fatalf("flog10pow2(%d) = %d", q, k)
		}
		k = flog10threeQuartersPow2(q)
		if cmpPow2Pow10(3, q-2, k) < 0 || cmpPow2Pow10(3, q-2, k+1) >= 0 {
			t.Fatalf("flog10threeQuartersPow2(%d) = %d", q, k)
		}
	}
	for e := pow10Min; e <= -pow10Min; e++ {
		r := flog2pow10(e)
		if cmpPow2Pow10(1, r, e) > 0 || cmpPow2Pow10(1, r+1, e) <= 0 {
			t.Fatalf("flog2pow10(%d) = %d", e, r)
		}
	}
	for i, g := range pow10Table {
		// g - 1 = ⌊β⌋ with 2^125 ≤ β < 2^126, so g's high 63 bits are in
		// [2^62, 2^63].
		if g[0] < 1<<62 || g[0] > 1<<63 || g[1] > mask63 {
			t.Fatalf("pow10Table[%d] (k = %d) = %#x out of range", i, i+pow10Min, g)
		}
	}
}
