package kernel

// NEON is a mandatory part of AArch64, so detection is unconditional.
//
// AdvSIMD has no 64-bit lane multiply, so the modmul-bound primitives
// (polyEvalBatch, bucketSign2) are not vector code: they are
// hand-scheduled scalar assembly that interleaves two independent
// MUL/UMULH limb chains per iteration, hiding the multiplier latency the
// compiled one-key-at-a-time reference cannot (see kernel_arm64.s).

//go:noescape
func polyEvalBatchNEON(coef []uint64, xs []uint64, out []uint64)

//go:noescape
func bucketSign2NEON(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)

func detect() {
	available = append(available, &neonTable)
}

var neonTable = table{
	name:          NEON,
	polyEvalBatch: neonPolyEvalBatch,
	bucketSign2:   neonBucketSign2,
	cauchy:        scalarCauchy,
}

func neonPolyEvalBatch(coef, xs, out []uint64) {
	out = out[:len(xs)]
	if len(coef) == 0 {
		clear(out)
		return
	}
	n := len(xs) &^ 1
	if n > 0 {
		polyEvalBatchNEON(coef, xs[:n], out[:n])
	}
	if n < len(xs) {
		scalarPolyEvalBatch(coef, xs[n:], out[n:])
	}
}

func neonBucketSign2(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64) {
	buckets = buckets[:len(xs)]
	signs = signs[:len(xs)]
	n := len(xs) &^ 1
	if n > 0 {
		bucketSign2NEON(h0, h1, g0, g1, m, xs[:n], buckets[:n], signs[:n])
	}
	if n < len(xs) {
		scalarBucketSign2(h0, h1, g0, g1, m, xs[n:], buckets[n:], signs[n:])
	}
}
