package httpapi

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// ---- float64 → JSON text, without strconv ----------------------------------
//
// Every number a JSON path answer carries is written by appendFloat, and
// six of a path's nine numbers are floats, so formatting them is most of
// an answer's encode. The digits come from Schubfach (R. Giulietti, "The
// Schubfach way to render doubles", 2020; the algorithm behind Java 19's
// Double.toString): the float's rounding interval is scaled by a 126-bit
// power of ten in three 128-bit products, and the shortest decimal in it
// is one of at most four candidates next to the scaled value. Integers
// below 2^52 skip all of that (they are their own shortest digits).
//
// Two changes make its digits strconv's, which are strictly the shortest
// that read back to the float, the nearest of those, and on a tie the
// even one. The published algorithm keeps at least two digits, so it
// tries the one-digit-shorter candidates (sp10, tp10) only when s ≥ 100;
// here they are tried whenever s ≥ 10, and the exponent they return
// carries the subnormal rescaling dk as the other branch's does. Without
// both, 1e-322 would print as 9.9e-323 and 1e-323 as 1e-322.
// strconv.AppendFloat stays the reference: ftoa_test.go holds the two to
// the same bytes on every binade's edges, the first 2^20 subnormals and
// random bit patterns.
//
// The power of ten is not a table of its own. Schubfach's g for 10^-k —
// ⌊10^-k · 2^-r⌋ + 1 with r chosen to put it in [2^125, 2^126) — is the
// Eisel–Lemire row of the /observe scanner (powersOfTen in scan.go, the
// top 128 bits of 10^-k rounded down) shifted right by two, plus one.

const (
	float64Precision = 53                                  // P: significand bits, the hidden one included
	minQ             = -1074                               // Q_MIN: the exponent of the smallest subnormal
	minC             = uint64(1) << (float64Precision - 1) // C_MIN: the hidden bit
	tinyC            = 3                                   // C_TINY: a subnormal significand below it is scaled by 10 first
	mask63           = uint64(1)<<63 - 1
)

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back to f (the nearest to f of those, and
// the even one on a tie, as strconv's), in exponent form below 1e-6 and
// from 1e21 on with the exponent in as few digits as it takes (e-7,
// e+21), and -0 as -0. The digits are shortestDecimal's.
func appendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		dst = append(dst, '-')
		b &^= 1 << 63
	}
	if b == 0 {
		return append(dst, '0')
	}
	d, e := shortestDecimal(b)
	abs := math.Float64frombits(b)
	return appendDecimal(dst, d, e, abs < 1e-6 || abs >= 1e21)
}

// shortestDecimal returns d and e, with d × 10^e the decimal that
// appendFloat writes for the positive finite float64 whose bits are b. d
// may end in zeros.
func shortestDecimal(b uint64) (d uint64, e int) {
	t := b & (minC - 1)
	bq := int(b >> (float64Precision - 1))
	if bq == 0 { // subnormal
		if t < tinyC {
			return schubfach(minQ, 10*t, -1)
		}
		return schubfach(minQ, t, 0)
	}
	mq := -minQ + 1 - bq // the value is c × 2^-mq
	c := minC | t
	if 0 < mq && mq < float64Precision {
		if f := c >> mq; f<<mq == c {
			return f, 0
		}
	}
	return schubfach(-mq, c, 0)
}

// schubfach returns the decimal for c × 2^q, whose neighbours are c ± 1
// units of 2^q (c − ½ below a power of two), as d × 10^(e+dk).
func schubfach(q int, c uint64, dk int) (d uint64, e int) {
	out := c & 1 // an odd c excludes the interval's ends
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != minC || q == minQ {
		cbl = cb - 2 // regular spacing
		k = flog10pow2(q)
	} else {
		cbl = cb - 1 // irregular: the float below is half as far away
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2
	g1, g0 := schubfachG(k)
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	// s is ⌊v / 10^k⌋; the candidates are s and s+1, and s' and t' one
	// digit shorter, each in the interval or not.
	s := vb >> 2
	if s >= 10 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k + dk
			}
			return tp10, k + dk
		}
	}
	uin := vbl+out <= s<<2
	win := (s+1)<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k + dk
		}
		return s + 1, k + dk
	}
	// Both lie in the interval: the nearer to v, the even one on a tie.
	cmp := int64(vb - (2*s+1)<<1)
	if cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k + dk
	}
	return s + 1, k + dk
}

// schubfachG returns Schubfach's g for 10^-k as g1·2^63 + g0, each below
// 2^63: the powersOfTen row T of 10^-k gives g = ⌊T / 4⌋ + 1.
func schubfachG(k int) (g1, g0 uint64) {
	row := &powersOfTen[-k-minExp10]
	lo, hi := row[0]>>2|row[1]<<62, row[1]>>2 // T >> 2
	g1, g0 = hi<<1|lo>>63, lo&mask63+1
	if g0 > mask63 {
		g1, g0 = g1+1, 0
	}
	return g1, g0
}

// rop returns cp × g × 2^-127, rounded to odd (Schubfach's figure 8).
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// flog10pow2 is ⌊log10(2^e)⌋, flog10ThreeQuartersPow2 ⌊log10(¾·2^e)⌋ and
// flog2pow10 ⌊log2(10^e)⌋, exact over every exponent a float64 has.
func flog10pow2(e int) int { return int(int64(e) * 661_971_961_083 >> 41) }

func flog10ThreeQuartersPow2(e int) int {
	return int((int64(e)*661_971_961_083 - 274_743_187_321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913_124_641_741 >> 38) }

// appendDecimal appends d × 10^e, d > 0, as strconv's shortest 'f' form
// does or, with exp, as its 'e' form with encoding/json's exponent. The
// text goes straight into dst's spare capacity, in runs of fixed length
// (the bytes past a run's end are overwritten or cut off), so no copy
// has a length the compiler cannot see.
func appendDecimal(dst []byte, d uint64, e int, exp bool) []byte {
	// The digits of d end at digits[24]; 24 more bytes follow, so a
	// 24-byte run can start at any digit.
	var digits [48]byte
	i := putDigits(&digits, d)
	n := 24
	if e < 0 || exp {
		for digits[n-1] == '0' {
			n--
			e++
		}
	}
	nd := n - i
	point := nd + e // the value is 0.ddd × 10^point

	// The text is at most 24 bytes: "0.00000" and 17 digits, 21 digits,
	// or "d.ddddddddddddddde-324". The runs reach byte 48.
	dst = slices.Grow(dst, 48)
	at := len(dst)
	o := (*[48]byte)(dst[at : at+48])
	run := func(to, from int) { *(*[24]byte)(o[to:]) = *(*[24]byte)(digits[from:]) }
	if exp {
		o[0], o[1] = digits[i], '.'
		run(2, i+1)
		x, m := point-1, nd+1
		if nd == 1 {
			m = 1
		}
		sign := byte('+')
		if x < 0 {
			sign, x = '-', -x
		}
		o[m], o[m+1] = 'e', sign
		m += 2
		if x >= 100 {
			o[m], o[m+1] = byte('0'+x/100), byte('0'+x/10%10)
			m += 2
		} else if x >= 10 {
			o[m] = byte('0' + x/10)
			m++
		}
		o[m] = byte('0' + x%10)
		return dst[:at+m+1]
	}
	switch {
	case point <= 0: // 0.000ddd
		binary.LittleEndian.PutUint64(o[:], zeros&^0xff00|'.'<<8)
		run(2-point, i)
		return dst[:at+2-point+nd]
	case point >= nd: // ddd000
		run(0, i)
		for j := 0; j < 24; j += 8 {
			binary.LittleEndian.PutUint64(o[nd+j:], zeros)
		}
		return dst[:at+point]
	}
	run(0, i) // dd.ddd
	o[point] = '.'
	run(point+1, i+point)
	return dst[:at+nd+1]
}

// putDigits writes the decimal digits of d > 0 to digits, ending at
// digits[24], and returns where they start.
func putDigits(digits *[48]byte, d uint64) int {
	i := 24
	for d >= 1e8 {
		binary.LittleEndian.PutUint64(digits[i-8:], digits8(uint32(d%1e8)))
		d /= 1e8
		i -= 8
	}
	top := digits8(uint32(d))
	binary.LittleEndian.PutUint64(digits[i-8:], top)
	return i - 8 + bits.TrailingZeros64(top^zeros)/8 // past the leading zeros
}

// zeros is eight '0' bytes.
const zeros = 0x3030303030303030

// digits8 returns the eight digits of x < 10^8, leading zeros included,
// as the bytes of a word, first digit lowest: x is cut into halves,
// quarters and digits in every lane at once, each division by 100 or 10
// a multiply and a shift.
func digits8(x uint32) uint64 {
	v := uint64(x/10000) | uint64(x%10000)<<32
	q := v * 10486 >> 20 & (0x7f | 0x7f<<32)
	v = (v-q*100)<<16 | q
	q = v * 103 >> 10 & (0xf | 0xf<<16 | 0xf<<32 | 0xf<<48)
	v = (v-q*10)<<8 | q
	return v | zeros
}
