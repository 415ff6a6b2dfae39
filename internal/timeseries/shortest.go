package timeseries

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// This file is the Flot encoder's number kernel: the shortest round-trip
// decimal of a float64, laid out exactly as strconv.AppendFloat(dst, v,
// 'g', -1, 64) lays it out. The digits come from Schubfach (R. Giulietti,
// "The Schubfach way to render doubles", 2020): one 126-bit power of ten
// and three 64×128-bit multiplies give the rounding interval's bounds
// scaled to 17 digits, and the shortest decimal inside it is one of at
// most four candidates. Like strconv's Ryu, it includes the interval's
// bounds when the significand is even and breaks ties to even, so both
// pick the same decimal.

const (
	// pow10Min and pow10Max bound the decimal exponent k = ⌊log10 2^q⌋
	// over every normal float64's binary exponent q ∈ [-1074, 971].
	pow10Min = -324
	pow10Max = 292
	mask63   = 1<<63 - 1
)

// pow10Table holds g = ⌊10^-k / 2^r⌋ + 1 for k in [pow10Min, pow10Max],
// with r chosen so 2^125 ≤ 10^-k / 2^r < 2^126, as its high and low 63
// bits. It is computed from that definition once, at package init.
var pow10Table = func() (t [pow10Max - pow10Min + 1][2]uint64) {
	ten := big.NewInt(10)
	for k := pow10Min; k <= pow10Max; k++ {
		e, r := -k, flog2pow10(-k)-125
		num, den := big.NewInt(1), big.NewInt(1)
		if e >= 0 {
			num.Exp(ten, big.NewInt(int64(e)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(-e)), nil)
		}
		if r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		lo := new(big.Int).And(g, big.NewInt(mask63))
		t[k-pow10Min] = [2]uint64{g.Rsh(g, 63).Uint64(), lo.Uint64()}
	}
	return t
}()

// flog10pow2 is ⌊log10 2^e⌋, flog10threeQuartersPow2 ⌊log10 (3/4)·2^e⌋
// and flog2pow10 ⌊log2 10^e⌋, exact over every exponent a float64 needs.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10threeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// roundToOdd returns ⌊g·cp / 2^127⌋ with its lowest bit set when the
// division is inexact, g being g1·2^63 + g0.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&mask63+mask63)>>63
}

// appendShortest appends v exactly as strconv.AppendFloat(dst, v, 'g',
// -1, 64) does. Normal values whose shortest form takes the 'g' verb's
// %f layout — a decimal exponent in [-4, 6), every hydrograph and gauge
// reading — take the Schubfach path; zero, subnormals, ±Inf, NaN and
// %e-form magnitudes are left to strconv.
func appendShortest(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	be := int(b>>52) & 0x7ff
	if be == 0 || be == 0x7ff {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	f, k := shortestDecimal(b&(1<<52-1)|1<<52, be-1075)
	// v = f·10^k with f in (10^15, 10^17); widen f to exactly 17 digits,
	// so v = 0.d1…d17 × 10^dp.
	if f < 1e16 {
		f, k = f*10, k-1
	}
	dp := k + 17
	if dp < -3 || dp > 6 {
		return strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	// The 17 digits: the first alone, then two words of 8 (see digits8).
	hi := f / 1e8
	first := '0' + byte(hi/1e8)
	wh, wl := digits8(uint32(hi%1e8)), digits8(uint32(f-hi*1e8))
	nd := 17 - bits.LeadingZeros64(wl)/8 // significant digits
	if wl == 0 {
		nd -= bits.LeadingZeros64(wh) / 8
	}
	wh, wl = wh+ascii8, wl+ascii8
	// Every layout is a few fixed-size stores into 24 spare bytes; the
	// bytes past the returned length are scratch.
	n := len(dst)
	dst = slices.Grow(dst, 24)
	out, i := dst[n:n+24], 0
	if b>>63 != 0 {
		out[0], i = '-', 1
	}
	if dp <= 0 { // 0.000ddd
		binary.LittleEndian.PutUint64(out[i:], 0x30303030_30302e30) // "0.000000"
		i += 2 - dp
	}
	out[i] = first
	binary.LittleEndian.PutUint64(out[i+1:], wh)
	switch {
	case dp <= 0:
		binary.LittleEndian.PutUint64(out[i+9:], wl)
		return dst[:n+i+nd]
	case nd <= dp: // an integer: the digits are its trailing zeros too
		return dst[:n+i+dp]
	}
	// ddd.ddd: wh's digits from dp on are written again after the point.
	out[i+dp] = '.'
	binary.LittleEndian.PutUint64(out[i+dp+1:], wh>>(8*(dp-1)))
	binary.LittleEndian.PutUint64(out[i+10:], wl)
	return dst[:n+i+nd+1]
}

// shortestDecimal returns the decimal f·10^k closest to c·2^q among the
// shortest inside its rounding interval, for a normal float64 with
// significand c ∈ [2^52, 2^53). Because c ≥ 2^52, s below is at least
// 10^15 and f lies in (10^15, 10^17).
func shortestDecimal(c uint64, q int) (f uint64, k int) {
	out := c & 1 // an odd significand excludes the interval's bounds
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	if c != 1<<52 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else {
		// At a power of two the gap below v is half the gap above. (The
		// smallest normal's is not, its lower neighbour being subnormal,
		// but its shortest digits come out the same either way.)
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g := &pow10Table[k-pow10Min]
	vb := roundToOdd(g[0], g[1], cb<<h)
	vbl := roundToOdd(g[0], g[1], cbl<<h)
	vbr := roundToOdd(g[0], g[1], cbr<<h)
	s := vb >> 2
	// At most one multiple of 10^(k+1) fits in the interval; if exactly
	// one of the two around v does, it is the shortest.
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	upin := vbl+out <= sp10<<2
	wpin := tp10<<2+out <= vbr
	if upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	// Otherwise the shortest has the digits of s or t = s+1; of the two,
	// the one inside the interval, and when both are, the nearer to v,
	// ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// digitPairs is "00" through "99", the two-digit emitter's table.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// ascii8 turns a word of eight digit values into their characters.
const ascii8 = 0x30303030_30303030

// digits8 returns the 8 decimal digits of x < 10^8, leading zeros
// included, one per byte, most significant in the lowest byte — the
// order a little-endian store writes them. x splits into 4-digit
// halves, each half into 2-digit lanes and each lane into digits, every
// lane of the word at once: a lane v < 10^4 divided by 100 is
// v·10486 >> 20, one below 100 divided by 10 is v·103 >> 10.
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	q := v * 10486 >> 20 & 0x0000007f_0000007f
	v = q | (v-100*q)<<16
	q = v * 103 >> 10 & 0x000f_000f_000f_000f
	return q | (v-10*q)<<8
}

// appendUint appends u in decimal, as strconv.AppendUint(dst, u, 10)
// does, from two digits8 words with the leading zeros shifted out. Past
// 10^16 — a millisecond stamp 300,000 years on — it is strconv's.
func appendUint(dst []byte, u uint64) []byte {
	if u >= 1e16 {
		return strconv.AppendUint(dst, u, 10)
	}
	n := len(dst)
	dst = slices.Grow(dst, 16)
	out := dst[n : n+16]
	hi, wl := u/1e8, digits8(uint32(u%1e8))
	if hi == 0 {
		z := min(bits.TrailingZeros64(wl)/8, 7) // leading zeros; 0 keeps one
		binary.LittleEndian.PutUint64(out, (wl+ascii8)>>(8*z))
		return dst[:n+8-z]
	}
	wh := digits8(uint32(hi))
	z := bits.TrailingZeros64(wh) / 8
	binary.LittleEndian.PutUint64(out, (wh+ascii8)>>(8*z))
	binary.LittleEndian.PutUint64(out[8-z:], wl+ascii8)
	return dst[:n+16-z]
}
