package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Per-primitive microbenchmarks, runnable per variant with
// REPRO_KERNEL=scalar|avx2|avx512|neon.

func benchKeys(n int) []uint64 {
	r := rand.New(rand.NewSource(99))
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = r.Uint64()
	}
	return xs
}

func BenchmarkKernelBucketSign2(b *testing.B) {
	xs := benchKeys(1024)
	buckets := make([]uint64, len(xs))
	signs := make([]float64, len(xs))
	b.SetBytes(int64(len(xs)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BucketSign2(12345, 678910, 111213, 141516, 4096, xs, buckets, signs)
	}
}

// BenchmarkKernelBucketSign2N4 is the dispatch fixed-cost canary: a 4-key
// batch is one vector iteration, so ns/op here is almost entirely call
// overhead. The AVX2 prologue once hid a legacy-SSE/AVX transition stall
// worth ~1µs per call on Xeon-class parts; this stays to catch any relapse.
func BenchmarkKernelBucketSign2N4(b *testing.B) {
	xs := []uint64{1, 2, 3, 4}
	buckets := make([]uint64, 4)
	signs := make([]float64, 4)
	for i := 0; i < b.N; i++ {
		BucketSign2(12345, 678910, 111213, 141516, 64, xs, buckets, signs)
	}
}

func BenchmarkKernelPolyEvalBatchK2(b *testing.B) {
	xs := benchKeys(1024)
	out := make([]uint64, len(xs))
	coef := []uint64{12345, 678910}
	b.SetBytes(int64(len(xs)))
	for i := 0; i < b.N; i++ {
		PolyEvalBatch(coef, xs, out)
	}
}

func BenchmarkKernelPolyEvalBatchK4(b *testing.B) {
	xs := benchKeys(1024)
	out := make([]uint64, len(xs))
	coef := []uint64{12345, 678910, 111213, 141516}
	b.SetBytes(int64(len(xs)))
	for i := 0; i < b.N; i++ {
		PolyEvalBatch(coef, xs, out)
	}
}

func BenchmarkKernelPolyEvalBatchK8(b *testing.B) {
	xs := benchKeys(1024)
	out := make([]uint64, len(xs))
	coef := benchKeys(8)
	for i := range coef {
		coef[i] %= modulus
	}
	b.SetBytes(int64(len(xs)))
	for i := 0; i < b.N; i++ {
		PolyEvalBatch(coef, xs, out)
	}
}

// benchPolyEvalRows evaluates a four-row group of degree k-1 over 256 keys,
// the shape of one norm sketch row group over one fold chunk; ns/row-key is
// the figure to set beside PolyEvalBatch's ns per key.
func benchPolyEvalRows(b *testing.B, k int) {
	const rows = 4
	xs := benchKeys(256)
	coef := benchKeys(rows * k)
	for i := range coef {
		coef[i] %= modulus
	}
	out := make([]uint64, rows*len(xs))
	b.SetBytes(int64(rows * len(xs)))
	for i := 0; i < b.N; i++ {
		PolyEvalRows(coef, k, xs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/row-key")
}

func BenchmarkKernelPolyEvalRowsK4(b *testing.B) { benchPolyEvalRows(b, 4) }
func BenchmarkKernelPolyEvalRowsK8(b *testing.B) { benchPolyEvalRows(b, 8) }

func BenchmarkKernelSyndromeAdd4(b *testing.B) {
	synd := make([]uint64, 16)
	d := [4]uint64{1, 2, 3, 4}
	a := [4]uint64{5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		SyndromeAdd4(synd, d, a)
	}
}

// BenchmarkKernelSyndromeFold folds m updates into the L0 sampler's 20
// syndromes (s = 10) through every table this CPU runs, scalar first, and
// reports ns per update: level 0 takes 2 048-update frames in blocks of 64,
// the subsampled levels 1-64 members per 128-update chunk.
func BenchmarkKernelSyndromeFold(b *testing.B) {
	for _, m := range []int{8, 32, 128, 2048} {
		keys := benchKeys(2 * m)
		d, a := keys[:m], keys[m:]
		for i := range keys {
			keys[i] %= modulus
		}
		for _, vt := range append([]*table{&scalarTable}, available...) {
			b.Run(fmt.Sprintf("m=%d/%s", m, vt.name), func(b *testing.B) {
				synd := make([]uint64, 20)
				for i := 0; i < b.N; i++ {
					vt.syndromeFold(synd, d, a)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m), "ns/update")
			})
		}
	}
}

// BenchmarkKernelTables calls each table's entries directly — the scalar
// reference, every selectable tier and the test-only alternates (on an IFMA
// machine, the VPMULUDQ AVX-512 table that detection passed over) — and
// reports ns per key: bucketSign2 on 1 024 keys and polyEvalBatch at
// k = 2, 4 and 8. Dispatch reaches only the selected table, so this is the
// one benchmark that sets an IFMA kernel beside the flavor it replaced.
// Sub-benchmarks are <primitive>/<table>; an alternate's name ends "-alt".
func BenchmarkKernelTables(b *testing.B) {
	xs := benchKeys(1024)
	out := make([]uint64, len(xs))
	signs := make([]float64, len(xs))
	coef := benchKeys(8)
	for i := range coef {
		coef[i] %= modulus
	}
	tables := append([]*table{&scalarTable}, vectorTables()...)
	label := func(t *table) string {
		if slices.Contains(testAltTables, t) {
			return t.name + "-alt"
		}
		return t.name
	}
	perKey := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "ns/key")
	}
	for _, t := range tables {
		b.Run("bucketSign2/"+label(t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t.bucketSign2(12345, 678910, 111213, 141516, 4096, xs, out, signs)
			}
			perKey(b)
		})
	}
	for _, k := range []int{2, 4, 8} {
		for _, t := range tables {
			b.Run(fmt.Sprintf("polyEvalBatch/k=%d/%s", k, label(t)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					t.polyEvalBatch(coef[:k], xs, out)
				}
				perKey(b)
			})
		}
	}
}

// BenchmarkKernelCauchy transforms 2^20 distinct toUnit-shaped inputs per
// op: on a short slice repeated every op, the branch predictor learns
// math.tan's branches and the scalar reference reads about half its cost.
func BenchmarkKernelCauchy(b *testing.B) {
	u := cauchyInputs(1 << 20)
	out := make([]float64, len(u))
	b.SetBytes(int64(len(u)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cauchy(u, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(u)), "ns/value")
}

// benchScatter measures cells[idx] += del over a batch of uniform buckets;
// width picks the cache regime.
func benchScatter(b *testing.B, width, batch int) {
	r := rand.New(rand.NewSource(77))
	cells := make([]float64, width)
	idx := make([]uint64, batch)
	del := make([]float64, batch)
	for i := range idx {
		idx[i] = uint64(r.Intn(width))
		del[i] = float64(2*(i&1) - 1)
	}
	b.SetBytes(int64(batch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScatterAddF64(nil, cells, idx, del)
	}
}

// Narrow = L1-resident row; Wide/Huge = past-L2 regimes.
func BenchmarkKernelScatterAddF64Narrow(b *testing.B) { benchScatter(b, 1<<10, 8192) }
func BenchmarkKernelScatterAddF64Wide(b *testing.B)   { benchScatter(b, 1<<17, 8192) }
func BenchmarkKernelScatterAddF64Huge(b *testing.B)   { benchScatter(b, 1<<21, 8192) }
