package hash

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
)

// saturatedFamily has every coefficient equal to p-1: with x = p-1 each of the
// lazy accumulator's products is the largest it can be, the overflow bound
// lazyTerms is sized against.
func saturatedFamily(rows, k int) *FlatFamily {
	f := NewFlatFamily(rows, k, rand.New(rand.NewPCG(1, 1)))
	for i := range f.coef {
		f.coef[i] = field.Elem(field.Modulus - 1)
	}
	return f
}

// TestEvalRowsMatchesEval pins the one-key→all-rows evaluator (and the sign
// and unit-interval forms built on it) to the per-row Horner Eval: every
// chunking of the lazy reduction (k below, at and above lazyTerms+1, several
// chunks), several row counts, random keys and the extremes of the key and
// coefficient ranges.
func TestEvalRowsMatchesEval(t *testing.T) {
	r := rand.New(rand.NewPCG(71, 72))
	keys := []uint64{0, 1, field.Modulus - 1, field.Modulus, field.Modulus + 1, math.MaxUint64}
	for i := 0; i < 64; i++ {
		keys = append(keys, r.Uint64())
	}
	for _, k := range []int{1, 2, 3, 4, 7, 8, 9, 10, 15, 16, 40, 70} {
		for _, rows := range []int{1, 7, 54, 80} {
			fams := []*FlatFamily{
				NewFlatFamily(rows, k, rand.New(rand.NewPCG(73, uint64(k*100+rows)))),
				saturatedFamily(rows, k),
			}
			vals := make([]field.Elem, rows)
			signs := make([]float64, rows)
			units := make([]float64, rows)
			for fi, f := range fams {
				for _, x := range keys {
					f.EvalRows(x, vals)
					f.SignRows(x, signs)
					f.Float64Rows(x, units)
					for j := 0; j < rows; j++ {
						if want := f.Eval(j, x); vals[j] != want {
							t.Fatalf("k=%d rows=%d family %d x=%#x: EvalRows[%d] = %#x, Eval = %#x",
								k, rows, fi, x, j, vals[j], want)
						}
						if want := float64(f.Sign(j, x)); signs[j] != want {
							t.Fatalf("k=%d rows=%d family %d x=%#x: SignRows[%d] = %v, Sign = %v",
								k, rows, fi, x, j, signs[j], want)
						}
						if want := f.Float64(j, x); math.Float64bits(units[j]) != math.Float64bits(want) {
							t.Fatalf("k=%d rows=%d family %d x=%#x: Float64Rows[%d] = %v, Float64 = %v",
								k, rows, fi, x, j, units[j], want)
						}
					}
				}
			}
		}
	}
}

// TestReduce128 checks the lazy accumulator's final fold on the largest value
// it is specified for (hi = 2^61-1, lo all ones) and on random ones, against
// the residue computed limb by limb (2^64 ≡ 8).
func TestReduce128(t *testing.T) {
	r := rand.New(rand.NewPCG(74, 75))
	cases := [][2]uint64{{0, 0}, {0, math.MaxUint64}, {1<<61 - 1, math.MaxUint64}, {1<<61 - 1, 0}}
	for i := 0; i < 1000; i++ {
		cases = append(cases, [2]uint64{r.Uint64() >> 3, r.Uint64()})
	}
	for _, c := range cases {
		hi, lo := c[0], c[1]
		want := field.Add(field.Mul(field.New(hi), 8), field.New(lo))
		if got := reduce128(hi, lo); got != want {
			t.Fatalf("reduce128(%#x, %#x) = %#x, want %#x", hi, lo, got, want)
		}
	}
}

// TestStackSharesStorage: stacking separately drawn functions keeps their
// values, and afterwards the functions are views of the family's rows.
func TestStackSharesStorage(t *testing.T) {
	r := rand.New(rand.NewPCG(78, 79))
	fns := make([]*KWise, 5)
	before := make([]field.Elem, len(fns))
	for j := range fns {
		fns[j] = NewKWise(10, r)
		r.Uint64() // draws in between, as the Lp sampler's constructor has
		before[j] = fns[j].Eval(12345)
	}
	f := Stack(fns)
	if f.Rows() != len(fns) || f.K() != 10 {
		t.Fatalf("Stack shape = %d×%d, want %d×10", f.Rows(), f.K(), len(fns))
	}
	vals := make([]field.Elem, f.Rows())
	f.EvalRows(12345, vals)
	for j, h := range fns {
		if vals[j] != before[j] || h.Eval(12345) != before[j] {
			t.Fatalf("row %d: family %#x, view %#x, before stacking %#x", j, vals[j], h.Eval(12345), before[j])
		}
		if !h.Equal(f.Row(j)) || &h.coef[0] != &f.coef[j*f.k] {
			t.Fatalf("row %d: view does not share the family's storage", j)
		}
	}
}

func TestRowsZeroAlloc(t *testing.T) {
	f := NewFlatFamily(54, 4, rand.New(rand.NewPCG(76, 77)))
	out := make([]float64, f.Rows())
	keys := benchKeys(2048)
	batch := make([]float64, len(keys))
	if got := testing.AllocsPerRun(10, func() {
		f.SignRows(12345, out)
		f.Float64Rows(12345, out)
		f.SignBatch(3, keys, batch)
		f.Float64Batch(3, keys, batch)
	}); got != 0 {
		t.Errorf("row and batch evaluators allocate %v times per call, want 0", got)
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the Lp update path's two shapes: one row over a batch of
// keys (SIMD key lanes) and one key over all rows (lazy-reduction dot
// products), each beside the per-row scalar Horner loop it replaced. The AMS
// sketch is 54 rows of k = 4, the p-stable sketch 80 rows of k = 8.
// ---------------------------------------------------------------------------

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

func benchRows(b *testing.B, rows, k int, fn func(f *FlatFamily, x uint64, out []field.Elem)) {
	f := NewFlatFamily(rows, k, rand.New(rand.NewPCG(1, 1)))
	keys := benchKeys(4096)
	out := make([]field.Elem, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(f, keys[i&4095], out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
}

func evalRowsScalar(f *FlatFamily, x uint64, out []field.Elem) {
	for j := range out {
		out[j] = f.Eval(j, x)
	}
}

func BenchmarkEvalRowsK4(b *testing.B) { benchRows(b, 54, 4, (*FlatFamily).EvalRows) }

func BenchmarkScalarEvalRowsK4(b *testing.B) { benchRows(b, 54, 4, evalRowsScalar) }

func BenchmarkEvalRowsK8(b *testing.B) { benchRows(b, 80, 8, (*FlatFamily).EvalRows) }

func BenchmarkScalarEvalRowsK8(b *testing.B) { benchRows(b, 80, 8, evalRowsScalar) }
