package hash

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/field"
)

// TestFlatFamilyBatchMatchesScalar: every batch kernel is bit-identical to
// the scalar Eval / Sign / Float64 of the same row, for the independence
// parameters the sketches actually use (pairwise, AMS's 4-wise, and a
// precision-sampling k=10), and a one-row family is the first row of a wider
// one drawn from identically positioned randomness; Equal tells same-seed
// families from different-seed ones.
func TestFlatFamilyBatchMatchesScalar(t *testing.T) {
	const rows = 5
	keys := make([]uint64, 257) // odd length exercises kernel tails
	r := rand.New(rand.NewPCG(11, 13))
	for i := range keys {
		keys[i] = r.Uint64() >> (i % 33) // mix of huge and small keys
	}
	keys[0], keys[1] = 0, 1

	for _, k := range []int{2, 4, 10} {
		flat := NewFlatFamily(rows, k, rand.New(rand.NewPCG(3, 4)))
		if flat.Rows() != rows || flat.K() != k {
			t.Fatalf("k=%d: FlatFamily shape (%d,%d)", k, flat.Rows(), flat.K())
		}
		if first := NewFlatFamily(1, k, rand.New(rand.NewPCG(3, 4))); !slices.Equal(first.coef, flat.rowCoef(0)) {
			t.Fatalf("k=%d: one-row family differs from row 0 of a wider draw", k)
		}
		if !flat.Equal(NewFlatFamily(rows, k, rand.New(rand.NewPCG(3, 4)))) || flat.Equal(NewFlatFamily(rows, k, rand.New(rand.NewPCG(5, 6)))) {
			t.Fatalf("k=%d: Equal does not tell same-seed from different-seed families", k)
		}
		evals := make([]field.Elem, len(keys))
		signs := make([]float64, len(keys))
		floats := make([]float64, len(keys))
		for j := 0; j < rows; j++ {
			flat.EvalRows(j, 1, keys, evals)
			flat.SignBatch(j, keys, signs)
			flat.Float64Batch(j, keys, floats)
			for t2, x := range keys {
				if want := flat.Eval(j, x); evals[t2] != want {
					t.Fatalf("k=%d row %d key %d: EvalRows %d != scalar %d", k, j, x, evals[t2], want)
				}
				if want := float64(flat.Sign(j, x)); signs[t2] != want {
					t.Fatalf("k=%d row %d key %d: SignBatch %v != scalar %v", k, j, x, signs[t2], want)
				}
				if want := flat.Float64(j, x); floats[t2] != want {
					t.Fatalf("k=%d row %d key %d: Float64Batch %v != scalar %v", k, j, x, floats[t2], want)
				}
			}
		}
	}
}

// TestBucketSignBatchMatchesScalar: the fused count-sketch kernel agrees with
// the scalar Bucket/Sign pair on both the k=2 fast path and the generic path.
func TestBucketSignBatchMatchesScalar(t *testing.T) {
	keys := make([]uint64, 100)
	r := rand.New(rand.NewPCG(21, 22))
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, k := range []int{2, 4} {
		h := NewFlatFamily(3, k, rand.New(rand.NewPCG(5, 6)))
		g := NewFlatFamily(3, k, rand.New(rand.NewPCG(7, 8)))
		buckets := make([]uint64, len(keys))
		signs := make([]float64, len(keys))
		for j := 0; j < 3; j++ {
			const m = 384
			BucketSignBatch(h, g, j, m, keys, buckets, signs)
			for t2, x := range keys {
				if want := h.Bucket(j, x, m); buckets[t2] != want {
					t.Fatalf("k=%d row %d: fused bucket %d != scalar %d", k, j, buckets[t2], want)
				}
				if want := float64(g.Sign(j, x)); signs[t2] != want {
					t.Fatalf("k=%d row %d: fused sign %v != scalar %v", k, j, signs[t2], want)
				}
			}
		}
	}
}

// TestLemireBucketDeterministicInRange: the multiply-shift reduction is a
// deterministic function of (v, m) and always lands in [0, m), across bucket
// counts including non-powers of two and the sketch sizes in actual use.
func TestLemireBucketDeterministicInRange(t *testing.T) {
	ms := []uint64{1, 2, 3, 5, 6, 7, 13, 384, 1000, 1 << 16, 1000003, (1 << 20) + 7}
	r := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 20000; trial++ {
		v := field.New(r.Uint64())
		for _, m := range ms {
			b := Bucket(v, m)
			if b >= m {
				t.Fatalf("Bucket(%d, %d) = %d out of range", v, m, b)
			}
			if b2 := Bucket(v, m); b2 != b {
				t.Fatalf("Bucket(%d, %d) nondeterministic: %d then %d", v, m, b, b2)
			}
		}
	}
	// Boundary values map to the ends of the range.
	if got := Bucket(0, 13); got != 0 {
		t.Fatalf("Bucket(0, 13) = %d, want 0", got)
	}
	if got := Bucket(field.Elem(field.Modulus-1), 13); got != 12 {
		t.Fatalf("Bucket(max, 13) = %d, want 12", got)
	}
}

// TestLemireBucketUniformity: bucket frequencies of hashed keys stay near
// uniform for a non-power-of-two m (the reduction must not skew low or high
// buckets beyond the 2^-61 discretization budget).
func TestLemireBucketUniformity(t *testing.T) {
	h := NewFlatFamily(1, 2, rand.New(rand.NewPCG(41, 42)))
	const m, nkeys = 12, 1 << 16
	counts := make([]int, m)
	for x := uint64(0); x < nkeys; x++ {
		counts[h.Bucket(0, x, m)]++
	}
	mean := float64(nkeys) / m
	for b, c := range counts {
		if d := float64(c) - mean; d > 6*82 || d < -6*82 { // 6*sqrt(mean)≈6*74, slack
			t.Errorf("bucket %d count %d too far from mean %.0f", b, c, mean)
		}
	}
}

// TestBatchEvaluatorsZeroAlloc: the sign and unit-interval batch evaluators
// convert in place in the caller's slice, so they allocate nothing (a buffer
// handed to the dispatched kernel would escape to the heap).
func TestBatchEvaluatorsZeroAlloc(t *testing.T) {
	f := NewFlatFamily(54, 4, rand.New(rand.NewPCG(76, 77)))
	keys := benchKeys(2048)
	batch := make([]float64, len(keys))
	if got := testing.AllocsPerRun(10, func() {
		f.SignBatch(3, keys, batch)
		f.Float64Batch(3, keys, batch)
		f.Float64Rows(3, 1, keys, batch)
		f.Float64Rows(40, 4, keys[:512], batch)
	}); got != 0 {
		t.Errorf("batch evaluators allocate %v times per call, want 0", got)
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: scalar per-key evaluation vs the flat batch kernels.
// ---------------------------------------------------------------------------

func benchKeys(n int) []uint64 {
	r := rand.New(rand.NewPCG(61, 62))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64() >> 16
	}
	return keys
}

// BenchmarkScalarBucketSignK2 is the pre-kernel count-sketch row cost: two
// scalar pairwise evaluations per key.
func BenchmarkScalarBucketSignK2(b *testing.B) {
	h := NewFlatFamily(1, 2, rand.New(rand.NewPCG(1, 1)))
	g := NewFlatFamily(1, 2, rand.New(rand.NewPCG(2, 2)))
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		x := keys[i&4095]
		sink += h.Bucket(0, x, 384) + uint64(g.Sign(0, x))
	}
	_ = sink
}

// BenchmarkBucketSignBatchK2 is the fused flat kernel over the same work,
// reported per key.
func BenchmarkBucketSignBatchK2(b *testing.B) {
	h := NewFlatFamily(1, 2, rand.New(rand.NewPCG(1, 1)))
	g := NewFlatFamily(1, 2, rand.New(rand.NewPCG(2, 2)))
	keys := benchKeys(4096)
	buckets := make([]uint64, len(keys))
	signs := make([]float64, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BucketSignBatch(h, g, 0, 384, keys, buckets, signs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}

// BenchmarkScalarFloat64K10 vs BenchmarkFloat64BatchK10: the Lp sampler's
// high-independence scaling-factor evaluation, scalar vs batched.
func BenchmarkScalarFloat64K10(b *testing.B) {
	h := NewFlatFamily(1, 10, rand.New(rand.NewPCG(1, 1)))
	keys := benchKeys(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += h.Float64(0, keys[i&4095])
	}
	_ = sink
}

func BenchmarkFloat64BatchK10(b *testing.B) {
	f := NewFlatFamily(1, 10, rand.New(rand.NewPCG(1, 1)))
	keys := benchKeys(4096)
	out := make([]float64, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Float64Batch(0, keys, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}

// The Lp update path's row shapes — the AMS sketch's 4-wise sign rows and the
// p-stable sketch's 8-wise rows — one row over a batch of keys (SIMD key
// lanes), each beside the per-key scalar Horner loop it replaced.

func benchBatch(b *testing.B, k int, fn func(f *FlatFamily, keys []uint64, out []float64)) {
	f := NewFlatFamily(1, k, rand.New(rand.NewPCG(1, 1)))
	keys := benchKeys(2048)
	out := make([]float64, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(f, keys, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}

func BenchmarkSignBatchK4(b *testing.B) {
	benchBatch(b, 4, func(f *FlatFamily, keys []uint64, out []float64) { f.SignBatch(0, keys, out) })
}

func BenchmarkScalarSignK4(b *testing.B) {
	benchBatch(b, 4, func(f *FlatFamily, keys []uint64, out []float64) {
		for t, x := range keys {
			out[t] = float64(f.Sign(0, x))
		}
	})
}

func BenchmarkFloat64BatchK8(b *testing.B) {
	benchBatch(b, 8, func(f *FlatFamily, keys []uint64, out []float64) { f.Float64Batch(0, keys, out) })
}

func BenchmarkScalarFloat64K8(b *testing.B) {
	benchBatch(b, 8, func(f *FlatFamily, keys []uint64, out []float64) {
		for t, x := range keys {
			out[t] = f.Float64(0, x)
		}
	})
}

func BenchmarkEvalBatchK2(b *testing.B) {
	f := NewFlatFamily(1, 2, rand.New(rand.NewPCG(1, 1)))
	keys := benchKeys(4096)
	out := make([]field.Elem, len(keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.EvalRows(0, 1, keys, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(keys)), "ns/key")
}
