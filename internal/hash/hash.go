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
// A FlatFamily (flat.go) packs all rows' coefficients contiguously: a
// count-sketch holds one row per sketch row, and a single function — the Lp
// sampler's scaling factors, a membership hash — is a one-row family.
//
// The Lp and norm update paths evaluate a family one way: a batch of keys
// meets a group of rows (EvalRows, Float64Rows) or one row (SignBatch,
// Float64Batch, BucketSignBatch) per kernel call. The keys sit in the
// SIMD lanes of internal/kernel's evaluators, for every k; a row group shares
// each key block's powers on the IFMA tier. The sign and unit-interval forms
// convert the field values in place in the output slice; single updates
// reach them as part of a buffered batch. Field arithmetic is exact and every result canonical, so the
// batch kernels agree bit for bit with the scalar Eval / Sign / Float64 /
// Bucket of the same row and key, which serve queries and the scalar
// count-sketch and L0 paths, and remain the reference the tests compare
// against.
package hash
