package httpapi

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// jsonFloat is a float64 as encoding/json writes it: strconv's shortest
// text, in 'e' form below 1e-6 and from 1e21 on, with e-07 cleaned up to
// e-7. It is the reference appendFloat is held to.
func jsonFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// floatChecker compares appendFloat with jsonFloat, one float64 at a
// time, and fails the test after the first few differences.
type floatChecker struct {
	t         *testing.T
	got, want []byte
	failures  int
}

func (c *floatChecker) check(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	c.got, c.want = appendFloat(c.got[:0], f), jsonFloat(c.want[:0], f)
	if !bytes.Equal(c.got, c.want) {
		c.t.Errorf("bits %#016x: appendFloat %s, encoding/json %s", math.Float64bits(f), c.got, c.want)
		if c.failures++; c.failures == 10 {
			c.t.FailNow()
		}
	}
}

// checkBits checks the float64 with bits b and its negation.
func (c *floatChecker) checkBits(b uint64) {
	c.check(math.Float64frombits(b))
	c.check(math.Float64frombits(b ^ 1<<63))
}

// checkAround checks f and the floats one ulp either side of it.
func (c *floatChecker) checkAround(f float64) {
	c.check(math.Nextafter(f, math.Inf(-1)))
	c.check(f)
	c.check(math.Nextafter(f, math.Inf(1)))
}

// TestAppendFloatMatchesStrconv holds the Schubfach kernel to strconv's
// shortest digits and encoding/json's wording, on the values where a
// kernel goes wrong first: powers of ten and two and their neighbours, the
// ends of every binade (where the spacing below halves), the subnormals
// (where the significand is short and rescaled), the switches to exponent
// form, and random bit patterns.
func TestAppendFloatMatchesStrconv(t *testing.T) {
	c := &floatChecker{t: t}
	for e := -324; e <= 308; e++ {
		f, _ := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		c.checkAround(f)
		c.checkAround(-f)
	}
	for e := -1074; e <= 1023; e++ {
		c.checkAround(math.Ldexp(1, e))
		c.checkAround(-math.Ldexp(1, e))
	}
	const lastSignificand = 1<<52 - 1
	for bq := uint64(0); bq < 0x7ff; bq++ {
		for _, t := range []uint64{0, 1, 2, 3, lastSignificand - 2, lastSignificand - 1, lastSignificand} {
			c.checkBits(bq<<52 | t)
		}
	}
	for b := uint64(1); b <= 1<<20; b++ { // the first 2^20 subnormals
		c.check(math.Float64frombits(b))
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, 0.1, 0.3, 2.5, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1 << 54,
		1e-6, 1e21, math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		1e-322, 1e-323, 9.999999999999999e20, 9.99999e-7, 123456.789, 4200000.333333333,
	} {
		c.checkAround(f)
		c.checkAround(-f)
	}
	rng := rand.New(rand.NewSource(1))
	for range 1 << 20 {
		c.check(math.Float64frombits(rng.Uint64()))
	}

	for f, want := range map[float64]string{
		1e-322: "1e-322", 1e-323: "1e-323", 5e-324: "5e-324", 1.5e-323: "1.5e-323",
		math.Copysign(0, -1): "-0", 1e21: "1e+21", 1e-7: "1e-7", 123e-20: "1.23e-18",
		1e20: "100000000000000000000", 0.000001: "0.000001", -0.5: "-0.5",
	} {
		if got := appendFloat(nil, f); string(got) != want {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// Schubfach's g for 10^-k is ⌊10^-k · 2^-r⌋ + 1, r putting the floor in
// [2^125, 2^126). schubfachG derives it from the scanner's powersOfTen; this
// computes it exactly, for every k a float64 needs.
func TestSchubfachGMatchesExactPowers(t *testing.T) {
	for k := -324; k <= 292; k++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(k, -k))), nil)
		g := new(big.Int)
		if n := p.BitLen(); k <= 0 { // 10^-k = p: keep its top 126 bits
			if n > 126 {
				g.Rsh(p, uint(n-126))
			} else {
				g.Lsh(p, uint(126-n))
			}
		} else { // 10^-k = 1/p, scaled by 2^(125+n) into [2^125, 2^126)
			g.Quo(g.Lsh(big.NewInt(1), uint(125+n)), p)
		}
		g.Add(g, big.NewInt(1))
		g1, g0 := schubfachG(k)
		want1 := new(big.Int).Rsh(g, 63)
		want0 := new(big.Int).Sub(g, new(big.Int).Lsh(want1, 63))
		if !want1.IsUint64() || want1.Uint64() != g1 || want0.Uint64() != g0 {
			t.Fatalf("k=%d: g = %d·2^63 + %d, want %v·2^63 + %v", k, g1, g0, want1, want0)
		}
	}
}

// BenchmarkFormatFloat times one float's text by the kernel and by the
// strconv path it replaced, on a city coordinate of 16–17 significant
// digits, an integer-valued length and a value in exponent form.
func BenchmarkFormatFloat(b *testing.B) {
	for _, tc := range []struct {
		name string
		f    float64
	}{
		{"digits=17", 470011.7512345678},
		{"integer", 4200000},
		{"exponent", 1.2345678901234567e-9},
	} {
		buf := make([]byte, 0, 32)
		b.Run(tc.name+"/schubfach", func(b *testing.B) {
			for range b.N {
				buf = appendFloat(buf[:0], tc.f)
			}
		})
		b.Run(tc.name+"/strconv", func(b *testing.B) {
			for range b.N {
				buf = jsonFloat(buf[:0], tc.f)
			}
		})
	}
}
