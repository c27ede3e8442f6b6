// Package field implements arithmetic over the prime field GF(2^61-1).
//
// The Mersenne prime 2^61-1 supports fast modular reduction (two folds of a
// 128-bit product) while leaving enough headroom that polynomially bounded
// stream values (|x_i| <= poly(n)) embed injectively into the field. The
// package provides the element arithmetic, dense polynomials, a
// Berlekamp-Massey minimal-LFSR solver and a small Gaussian elimination —
// exactly the toolkit needed by the k-wise independent hash families
// (internal/hash) and the exact sparse recovery of Lemma 5 (internal/sparse)
// — plus the query side of that recovery (eval.go): VandermondeSolver solves
// the transposed Vandermonde value system in O(e²), and SplitTester finds the
// roots of a locator that is a product of distinct linear factors by
// equal-degree splitting, or tells that it is not one, in about 60 modular
// squarings per split whatever the dimension. On the update side, PowCache
// serves rho^index from radix-16 windows of rho — three multiplies for an
// index below 2^16 — built by the first Pow, never by the constructor.
package field

import "math/bits"

// Modulus is the field characteristic, the Mersenne prime 2^61 - 1.
const Modulus uint64 = (1 << 61) - 1

// Elem is an element of GF(2^61-1), always kept in canonical form [0, Modulus).
type Elem uint64

// reduce maps any uint64 into canonical form. The input may be up to 2^64-1;
// two folds suffice because after one fold the value is < 2^62.
func reduce(x uint64) Elem {
	x = (x & Modulus) + (x >> 61)
	if x >= Modulus {
		x -= Modulus
	}
	return Elem(x)
}

// New returns the canonical element for an arbitrary uint64.
func New(x uint64) Elem { return reduce(x) }

// FromInt64 embeds a signed integer into the field, mapping negatives to
// Modulus - |v|. Values with |v| < Modulus/2 round-trip through ToInt64.
func FromInt64(v int64) Elem {
	if v >= 0 {
		return reduce(uint64(v))
	}
	m := reduce(uint64(-v))
	if m == 0 {
		return 0
	}
	return Elem(Modulus) - m
}

// ToInt64 inverts FromInt64 for elements that encode signed values of
// magnitude below Modulus/2 (all stream values do: |x_i| <= poly(n)).
func (e Elem) ToInt64() int64 {
	if uint64(e) > Modulus/2 {
		return -int64(Modulus - uint64(e))
	}
	return int64(e)
}

// Add returns a + b in the field.
func Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b)
	if s >= Modulus {
		s -= Modulus
	}
	return Elem(s)
}

// Sub returns a - b in the field.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return a + Elem(Modulus) - b
}

// Neg returns -a in the field.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(Modulus) - a
}

// Mul returns a * b in the field using a 128-bit product and Mersenne folding.
func Mul(a, b Elem) Elem {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// a,b < 2^61 so hi < 2^58. The product is hi*2^64 + lo; since
	// 2^61 = 1 (mod Modulus), 2^64 = 8 (mod Modulus):
	//   value = (lo & M) + (lo >> 61) + hi*8 (mod Modulus)
	part := (lo & Modulus) + (lo >> 61) + hi<<3 // < 2^61 + 2^3 + 2^61 < 2^63
	return reduce(part)
}

// Pow returns a^e by square-and-multiply.
func Pow(a Elem, e uint64) Elem {
	r := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			r = Mul(r, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return r
}

// PowCache makes repeated exponentiations of one base cost a table lookup
// and a multiply per four exponent bits, in place of the square-and-multiply
// ladder of Pow (~61 squarings plus a multiply per set bit). It holds radix-16
// windows of the base: window k is base^(v·16^k) for v = 0..15, so
//
//	base^e = Π_k window_k[(e >> 4k) & 15]
//
// — for e < 2^16 that is four lookups and three multiplies, and leading zero
// windows are skipped. The fingerprint hot paths (sparse recovery and the
// distinct-elements estimator evaluate rho^index once per update per level)
// are the intended users.
//
// The windows are sized by the exponents actually asked for and built on
// demand: NewPowCache does no table work and allocates no table, the first
// Pow builds the windows its exponent needs (128 B each), and a later, larger
// exponent appends the missing ones. A sketch that is only constructed,
// loaded, merged and marshalled — the serving tier's upload and query paths
// build one per request — therefore never pays for a table. Pow is not safe
// for concurrent use on one cache.
type PowCache struct {
	base Elem
	win  []Elem // win[16k+v] = base^(v·16^k), whole windows only
}

// NewPowCache returns the cache for base; its windows are built by Pow.
func NewPowCache(base Elem) *PowCache { return &PowCache{base: base} }

// Pow returns base^e, identical to Pow(base, e) for every e.
func (pc *PowCache) Pow(e uint64) Elem {
	win := pc.win
	if e>>(len(win)/4) != 0 || len(win) == 0 {
		win = pc.grow(e)
	}
	r := win[e&15]
	for off := 16; e > 15; off += 16 {
		e >>= 4
		r = Mul(r, win[off+int(e&15)])
	}
	return r
}

// grow appends the windows needed to cover exponent e and returns the table.
// Window k starts from base^(16^k), the sixteenth power of window k-1's
// generator, and fills by repeated multiplication — exact field arithmetic,
// so every entry equals the ladder's value.
func (pc *PowCache) grow(e uint64) []Elem {
	need := max(1, (bits.Len64(e)+3)/4)
	have := len(pc.win) / 16
	win := make([]Elem, 16*need)
	copy(win, pc.win)
	g := pc.base
	if have > 0 {
		g = Mul(win[16*have-1], win[16*have-15])
	}
	for k := have; k < need; k++ {
		w := win[16*k : 16*k+16]
		w[0] = 1
		for v := 1; v < 16; v++ {
			w[v] = Mul(w[v-1], g)
		}
		g = Mul(w[15], g)
	}
	pc.win = win
	return win
}

// Inv returns the multiplicative inverse a^(Modulus-2). Inv(0) returns 0;
// callers that can receive zero must check first.
func Inv(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Pow(a, Modulus-2)
}
