package kernel

import (
	"math"
	"math/bits"
)

// Scalar reference implementations: the bit-identity baseline every vector
// variant is pinned against. The Mersenne-prime arithmetic restates
// internal/field (kernel imports no package of this module); both work on
// canonical representatives of GF(2^61-1) in [0, modulus), so equal values
// always have equal bits and "bit-identical" reduces to exact mod-p algebra.

// modulus is the field characteristic 2^61 - 1 (= field.Modulus).
const modulus uint64 = (1 << 61) - 1

var scalarTable = table{
	name:          Scalar,
	polyEvalBatch: scalarPolyEvalBatch,
	bucketSign2:   scalarBucketSign2,
	cauchy:        scalarCauchy,
}

// reduce maps any uint64 into canonical form (two Mersenne folds).
func reduce(x uint64) uint64 {
	x = (x & modulus) + (x >> 61)
	if x >= modulus {
		x -= modulus
	}
	return x
}

// modAdd adds two canonical elements.
func modAdd(a, b uint64) uint64 {
	s := a + b
	if s >= modulus {
		s -= modulus
	}
	return s
}

// modMul multiplies two canonical elements via the 128-bit product and
// 2^64 ≡ 8 (mod 2^61-1).
func modMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce((lo & modulus) + (lo >> 61) + hi<<3)
}

// lemire maps a canonical element v to [0, m): floor(v·m / 2^61) as the high
// word of the 128-bit product (v<<3)·m — identical to hash.Bucket.
func lemire(v, m uint64) uint64 {
	hi, _ := bits.Mul64(v<<3, m)
	return hi
}

// signFloat maps a canonical element to ±1.0 from its low bit, branch-free —
// identical to hash.signFloat.
func signFloat(v uint64) float64 {
	return float64(int64(v&1)<<1 - 1)
}

func scalarPolyEvalBatch(coef, xs, out []uint64) {
	out = out[:len(xs)]
	switch len(coef) {
	case 0:
		for t := range out {
			out[t] = 0
		}
	case 2:
		c0, c1 := coef[0], coef[1]
		for t, x := range xs {
			out[t] = modAdd(modMul(c1, reduce(x)), c0)
		}
	case 4:
		c0, c1, c2, c3 := coef[0], coef[1], coef[2], coef[3]
		for t, x := range xs {
			xe := reduce(x)
			acc := modAdd(modMul(c3, xe), c2)
			acc = modAdd(modMul(acc, xe), c1)
			out[t] = modAdd(modMul(acc, xe), c0)
		}
	default:
		for t, x := range xs {
			xe := reduce(x)
			var acc uint64
			for i := len(coef) - 1; i >= 0; i-- {
				acc = modAdd(modMul(acc, xe), coef[i])
			}
			out[t] = acc
		}
	}
}

// scalarSyndromeFold is SyndromeFold on every table without the IFMA
// kernel, and the IFMA table's below ifmaFoldMin updates: groups of four
// scalar chains (SyndromeAdd4), then the tail of up to three updates one at a
// time.
func scalarSyndromeFold(synd, d, a []uint64) {
	a = a[:len(d)]
	if len(synd) == 0 {
		return
	}
	i := 0
	for ; i+4 <= len(d); i += 4 {
		SyndromeAdd4(synd, [4]uint64(d[i:i+4]), [4]uint64(a[i:i+4]))
	}
	for ; i < len(d); i++ {
		syndromeAdd1(synd, d[i], a[i])
	}
}

func scalarBucketSign2(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64) {
	buckets = buckets[:len(xs)]
	signs = signs[:len(xs)]
	for t, x := range xs {
		xe := reduce(x)
		buckets[t] = lemire(modAdd(modMul(h1, xe), h0), m)
		signs[t] = signFloat(modAdd(modMul(g1, xe), g0))
	}
}

func scalarCauchy(u, out []float64) {
	out = out[:len(u)]
	for t, v := range u {
		out[t] = math.Tan(math.Pi * (v - 0.5))
	}
}
