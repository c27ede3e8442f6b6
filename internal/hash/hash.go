// Package hash provides the k-wise independent hash families used throughout
// the sketches: polynomial hashing over GF(2^61-1).
//
// A degree-(k-1) polynomial with uniform random coefficients evaluated at
// distinct points yields a k-wise independent family over the field. From the
// field value we derive the three output types the paper's algorithms need:
//
//   - bucket indices h: [n] -> [m] (count-sketch rows, subsampling levels),
//   - signs g: [n] -> {-1,+1} (count-sketch, AMS tug-of-war),
//   - uniform reals t_i in (0,1] (the precision-sampling scaling factors of
//     Figure 1, which require k-wise independence with k = 10*ceil(1/|p-1|)).
//
// Buckets are derived by Lemire's multiply-shift range reduction (see Bucket)
// and signs/uniforms from the field value; each introduces bias at most 2^-61
// per evaluation, far below the paper's n^-c "low probability" budget — the
// standard discretization the paper itself omits.
//
// Two representations share one storage layout: FlatFamily (flat.go) packs
// all rows' coefficients contiguously and exposes the kernels the sketch hot
// paths drive; KWise is a scalar one-row view over the same coefficient
// slices, kept as the compatibility API for queries and same-seed Merge
// checks.
//
// The Lp and norm update paths evaluate a family one way: a batch of keys
// meets one row at a time (EvalBatch, SignBatch, Float64Batch,
// BucketSignBatch). The keys sit in the SIMD lanes of internal/kernel's Horner
// kernel, for every k, and the sign and unit-interval forms convert the field
// values in place in the output slice; single updates reach it as part of a
// buffered batch. Field arithmetic is exact and every result canonical, so the
// batch kernels agree bit for bit with the scalar Eval / Sign / Float64 /
// Bucket of the same row and key, which serve queries and the scalar
// count-sketch and L0 paths, and remain the reference the tests compare
// against.
package hash

import (
	"math/rand/v2"

	"repro/internal/field"
)

// KWise is a k-wise independent hash function from uint64 keys to GF(2^61-1).
// It is a one-row view over flat coefficient storage: functions returned by
// Family share one contiguous allocation.
type KWise struct {
	coef []field.Elem // degree k-1 polynomial, coef[i] multiplies x^i
}

// NewKWise draws a fresh k-wise independent function using randomness from r.
// k must be >= 1; k=2 gives the pairwise families used by count-sketch, and
// the Lp sampler passes the paper's k = 10*ceil(1/|p-1|).
func NewKWise(k int, r *rand.Rand) *KWise {
	if k < 1 {
		panic("hash: k must be >= 1")
	}
	return NewFlatFamily(1, k, r).Row(0)
}

// K returns the independence parameter of the family.
func (h *KWise) K() int { return len(h.coef) }

// Eval returns the field value of the hash at key x.
func (h *KWise) Eval(x uint64) field.Elem { return evalPoly(h.coef, x) }

// Bucket maps key x to a bucket in [0, m) via the Lemire reduction of the
// field value — identical, key for key, to the buckets of BucketSignBatch.
func (h *KWise) Bucket(x, m uint64) uint64 {
	return Bucket(h.Eval(x), m)
}

// Sign maps key x to +1 or -1 with (nearly) equal probability.
func (h *KWise) Sign(x uint64) int64 {
	if uint64(h.Eval(x))&1 == 1 {
		return 1
	}
	return -1
}

// Float64 maps key x to a uniform real in (0, 1]. The value is never zero, so
// it is safe to divide by powers of it (the scaling factors t_i^{-1/p} of
// Figure 1).
func (h *KWise) Float64(x uint64) float64 { return toUnit(h.Eval(x)) }

// EvalBatch writes the field value at each key of xs into out[:len(xs)].
func (h *KWise) EvalBatch(xs []uint64, out []field.Elem) { evalBatch(h.coef, xs, out) }

// SignBatch writes the sign (±1.0) of each key of xs into out[:len(xs)].
func (h *KWise) SignBatch(xs []uint64, out []float64) { signBatch(h.coef, xs, out) }

// Float64Batch writes the unit-interval value of each key of xs into
// out[:len(xs)], bit-identical to scalar Float64 per key.
func (h *KWise) Float64Batch(xs []uint64, out []float64) { float64Batch(h.coef, xs, out) }

// Equal reports whether two hash functions are the same polynomial, i.e.
// were drawn from identically positioned randomness. Merge paths use it to
// validate that two sketches are same-seed replicas before adding states.
func (h *KWise) Equal(other *KWise) bool {
	if other == nil || len(h.coef) != len(other.coef) {
		return false
	}
	for i := range h.coef {
		if h.coef[i] != other.coef[i] {
			return false
		}
	}
	return true
}

// Family draws many independent KWise functions with a shared independence k,
// as count-sketch needs one (h_j, g_j) pair per row j in [l]. The returned
// functions are views over a single flat coefficient allocation, drawn in the
// same randomness order as NewFlatFamily(count, k, r).
func Family(count, k int, r *rand.Rand) []*KWise {
	return NewFlatFamily(count, k, r).Views()
}

// FamilyEqual reports whether two families are element-wise Equal.
func FamilyEqual(a, b []*KWise) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
