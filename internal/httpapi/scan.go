package httpapi

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"strconv"

	"hotpaths"
)

// ---- the canonical /observe body, without reflection ----------------------
//
// scanObserve reads the JSON body that carries the system's volume — a
// POST /observe batch — in exactly the form encoding/json writes for an
// ObserveRequest, which is what every shipped client and the gateway
// send, in one straight line with no allocation: punctuation and keys are
// matched as whole 8-byte words, with no key scan and no record of the
// keys seen. Its digits are read eight at a time (digitRun, after
// simdjson: Langdale & Lemire, "Parsing gigabytes of JSON per second",
// VLDB J. 2019) and converted exactly (Clinger, Eisel–Lemire, strconv for
// the rest). Any other spelling of the same request — other key orders,
// whitespace, missing keys, unknown fields, "t":1e3 — it does not judge:
// it reports false, and DecodeObserve hands the same bytes to
// encoding/json, which stays the definition of the accepted language and
// the author of every error.

// scanObserve reads a canonical POST /observe body, byte for byte
//
//	{"observations":[OBS,OBS,…],"tick":N}
//
// where the list may be empty, ,"tick":N may be missing (omitempty drops
// a zero), one trailing "\n" (what json.Encoder writes) may follow, and
// each OBS is what canonical reads. It calls each once per observation,
// in order, with the decoded value and its JSON text (a slice of body),
// and returns the tick (0 when absent). When ok is false the body is
// outside that form — each may already have been called for a prefix of
// it — and must be decoded by encoding/json.
func scanObserve(body []byte, each func(o hotpaths.ObservationJSON, raw []byte)) (tick int64, ok bool) {
	const list = `{"observations":[`
	if !bytes.HasPrefix(body, []byte(list)) {
		return 0, false
	}
	s := scanner{b: body, i: len(list)}
	for more := !s.eat(']'); more; {
		start := s.i
		o, ok := s.canonical()
		if !ok {
			return 0, false
		}
		each(o, s.b[start:s.i])
		if more = !s.eat(']'); more && !s.eat(',') {
			return 0, false
		}
	}
	if s.word(wTick, 8) {
		if tick, ok = s.int(); !ok {
			return 0, false
		}
	}
	if !s.eat('}') {
		return 0, false
	}
	s.eat('\n')
	return tick, s.i == len(s.b)
}

// The words of the canonical body, as a little-endian load of its bytes
// sees them.
const (
	wOpen   = 0x7463656a626f227b // {"object
	wObject = 0x3a227463656a626f // object":
	wX      = 0x3a2278222c       // ,"x":
	wY      = 0x3a2279222c       // ,"y":
	wT      = 0x3a2274222c       // ,"t":
	wSigma  = 0x5f616d676973222c // ,"sigma_
	wSigmaX = 0x3a22785f         // _x":
	wSigmaY = 0x3a22795f         // _y":
	wTick   = 0x3a226b636974222c // ,"tick":
)

// canonical reads, at the cursor, one observation in exactly the form
// encoding/json writes for hotpaths.ObservationJSON,
//
//	{"object":7,"x":1.5,"y":2,"t":9}  or  {…,"t":9,"sigma_x":0.5,"sigma_y":0.5}
//
// (either sigma may be missing: omitempty drops a zero), in one straight
// line. On the first byte that differs it reports false, with the cursor
// anywhere.
func (s *scanner) canonical() (o hotpaths.ObservationJSON, ok bool) {
	if !s.at(0, wOpen, 8) || !s.at(2, wObject, 8) {
		return o, false
	}
	s.i += len(`{"object":`)
	if o.Object, ok = s.goInt(); !ok || !s.word(wX, 5) {
		return o, false
	}
	if o.X, ok = s.float(); !ok || !s.word(wY, 5) {
		return o, false
	}
	if o.Y, ok = s.float(); !ok || !s.word(wT, 5) {
		return o, false
	}
	if o.T, ok = s.int(); !ok {
		return o, false
	}
	if s.at(0, wSigma, 8) && s.at(7, wSigmaX, 4) {
		s.i += len(`,"sigma_x":`)
		if o.SigmaX, ok = s.float(); !ok {
			return o, false
		}
	}
	if s.at(0, wSigma, 8) && s.at(7, wSigmaY, 4) {
		s.i += len(`,"sigma_y":`)
		if o.SigmaY, ok = s.float(); !ok {
			return o, false
		}
	}
	return o, s.eat('}')
}

// scanner is a cursor over a JSON text. Its methods report false on
// input outside the canonical form, leaving the cursor anywhere.
type scanner struct {
	b []byte
	i int
}

// at reports whether the n ≤ 8 bytes at s.i+off are those of the word w.
// It loads eight bytes whatever n is, so it reports false with fewer than
// eight left from there; in a whole body the list's closing "]}" follows
// every observation, which leaves enough for each word canonical matches.
func (s *scanner) at(off int, w uint64, n uint) bool {
	j := s.i + off
	return j+8 <= len(s.b) && binary.LittleEndian.Uint64(s.b[j:])&(^uint64(0)>>(64-8*n)) == w
}

// word consumes the n ≤ 8 bytes of w if they are next (see at).
func (s *scanner) word(w uint64, n uint) bool {
	if !s.at(0, w, n) {
		return false
	}
	s.i += int(n)
	return true
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// natural reads, at the cursor, JSON's int production without its sign:
// digits with no leading zero, at most 19 of them, so the value is exact
// in a uint64 — a 20-digit one is out of int64's range anyway. A fraction
// or an exponent behind it is left for the caller's next word to trip
// over.
func (s *scanner) natural() (v uint64, ok bool) {
	b, i := s.b, s.i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	n := i - s.i
	if n == 0 || n > maxMantDigits || (n > 1 && b[s.i] == '0') {
		return 0, false
	}
	s.i = i
	return v, true
}

func (s *scanner) int() (int64, bool) {
	neg := s.eat('-')
	v, ok := s.natural()
	switch {
	case !ok:
		return 0, false
	case neg && v <= 1<<63:
		return -int64(v), true // 1<<63 converts to MinInt64, its own negation
	case !neg && v <= math.MaxInt64:
		return int64(v), true
	}
	return 0, false
}

// goInt reads an integer in range for the platform's int.
func (s *scanner) goInt() (int, bool) {
	v, ok := s.int()
	return int(v), ok && int64(int(v)) == v
}

// maxNumberLen bounds the number literals the scanner converts. A float64
// prints in at most 24 bytes; strconv takes the literal as a string, and
// the conversion of up to 32 bytes needs no allocation.
const maxNumberLen = 32

// maxMantDigits is how many significant digits a uint64 mantissa holds
// whatever they are: 10^19 < 2^64.
const maxMantDigits = 19

// float reads a JSON number as encoding/json does into a float64 field,
// in one pass. The grammar walk — strconv alone would also take hex,
// underscores and "inf" — gathers the significant digits into a mantissa
// and a decimal exponent, and the value is made from those exactly:
// Clinger's fast path when both mantissa and power of ten are exact
// float64s, Eisel–Lemire otherwise. What neither can convert exactly —
// more than 19 significant digits, a rounding Eisel–Lemire cannot decide,
// a subnormal, an underflow, an overflow — goes to strconv.ParseFloat on
// the same bytes, whose range error is a refusal. So strconv stays the
// definition of every value.
func (s *scanner) float() (float64, bool) {
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// man collects every digit, integer and fraction alike, nd counts
	// them, and exp10 is the power of ten that scales man to the value.
	digits := i
	i, man := digitRun(b, i, 0)
	nd := i - digits
	if nd == 0 || (nd > 1 && b[digits] == '0') {
		return 0, false
	}
	exp10 := 0
	if i < len(b) && b[i] == '.' {
		i++
		first := i
		i, man = digitRun(b, i, man)
		if i == first {
			return 0, false
		}
		exp10 = first - i
		nd -= exp10
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		first := i
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // past ±10^4 every value is 0 or out of range
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	s.i = i
	if i-start > maxNumberLen {
		return 0, false
	}
	if nd > maxMantDigits {
		// Leading zeros add nothing to man. Past maxMantDigits
		// significant digits man has wrapped — to 0, even — and strconv
		// reads the literal instead.
		for _, c := range b[digits:i] {
			if c == '0' {
				nd--
			} else if c != '.' {
				break
			}
		}
	}
	if nd <= maxMantDigits {
		if f, ok := exactFloat(man, exp10, neg); ok {
			return f, true
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, err == nil
}

// digitRun reads the run of decimal digits at b[i:] on into man, whose
// every digit makes it ten times larger — past 19 digits it wraps, as the
// caller knows — and returns the index after the run. While eight bytes
// remain it takes them at once (SWAR, as simdjson does: one load, a
// digit-class test and three multiplies); the per-byte loop takes the
// tail.
func digitRun(b []byte, i int, man uint64) (int, uint64) {
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		if !eightDigits(w) {
			break
		}
		man = man*100_000_000 + eightValue(w)
	}
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

// eightDigits reports whether all eight bytes of w are ASCII digits: each
// has the high nibble 3, and so does each plus 6, which turns ':' to '?'
// into 0x40 and above. A byte whose addition carries into the next is
// 0xFA or more, which the first test already refuses.
func eightDigits(w uint64) bool {
	return w&0xF0F0F0F0F0F0F0F0|((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 == 0x3333333333333333
}

// eightValue returns the number the eight ASCII digits of w spell, the
// first digit in the low byte: pairs of digits, then of pairs, then of
// quadruples are combined by one multiply each.
func eightValue(w uint64) uint64 {
	w = (w & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
	w = (w & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
	return (w & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exactFloat returns the float64 nearest to ±man × 10^exp10, or false
// when it cannot tell it for certain. With man and the power both exact
// float64s (Clinger's fast path), one correctly rounded multiplication or
// division gives it; otherwise Eisel–Lemire does.
func exactFloat(man uint64, exp10 int, neg bool) (float64, bool) {
	if man < 1<<53 && -len(pow10) < exp10 && exp10 < len(pow10) {
		f := float64(man)
		if neg {
			f = -f // keeps the sign of -0
		}
		if exp10 < 0 {
			return f / pow10[-exp10], true
		}
		return f * pow10[exp10], true
	}
	return eiselLemire(man, exp10, neg)
}

// eiselLemire is the Eisel–Lemire conversion (D. Lemire, "Number Parsing
// at a Gigabyte per Second", Software: Practice and Experience, 2021),
// ported from the Go standard library's strconv/eisel_lemire.go —
// Copyright 2020 The Go Authors, used under its BSD-style licence — with
// its float32 half left out. Its terse comments refer to the sections of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html. ok is false
// where the algorithm cannot decide the rounding, and on a subnormal or
// infinite result.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < minExp10 || maxExp10 < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, powersOfTen[exp10-minExp10][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, powersOfTen[exp10-minExp10][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// minExp10 and maxExp10 are the powers of ten of powersOfTen's first and
// last rows.
const (
	minExp10 = -348
	maxExp10 = 347
)

// powersOfTen holds, for each 10^e from minExp10 to maxExp10, the top 128
// bits of its binary mantissa, rounded down, as {low, high} 64-bit words;
// the binary exponent follows from e. It is strconv's
// detailedPowersOfTen, computed once here rather than listed: for e ≥ 0
// the leading bits of 10^e, for e < 0 ⌊2^(127+L) / 10^-e⌋, L being the
// bit length of 10^-e.
var powersOfTen = func() (t [maxExp10 - minExp10 + 1][2]uint64) {
	row := func(e int, m *big.Int) {
		var buf [16]byte
		m.FillBytes(buf[:])
		t[e-minExp10] = [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten := big.NewInt(10)
	p, m := big.NewInt(1), new(big.Int) // p = 10^|e|
	for e := 0; e <= maxExp10; e++ {
		if n := p.BitLen(); n > 128 {
			m.Rsh(p, uint(n-128))
		} else {
			m.Lsh(p, uint(128-n))
		}
		row(e, m)
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for e := -1; e >= minExp10; e-- {
		m.Lsh(m.SetInt64(1), uint(127+p.BitLen()))
		row(e, m.Quo(m, p))
		p.Mul(p, ten)
	}
	return t
}()
