package hash

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/field"
	"repro/internal/kernel"
)

// sweepVariants runs fn once under every kernel variant selectable on this
// machine, restoring the startup selection afterwards. The scalar per-key
// APIs (Eval, Bucket, Sign) are not dispatched and serve as the reference.
func sweepVariants(t *testing.T, fn func(t *testing.T)) {
	prev := kernel.Active()
	t.Cleanup(func() {
		if err := kernel.Select(prev); err != nil {
			t.Fatalf("restoring kernel variant %q: %v", prev, err)
		}
	})
	for _, name := range kernel.Variants() {
		if err := kernel.Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		t.Run(name, fn)
	}
}

func TestBatchVariantsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewPCG(51, 1))
	keys := make([]uint64, 133)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, k := range []int{2, 3, 4, 6} {
		h := NewFlatFamily(3, k, rand.New(rand.NewPCG(52, uint64(k))))
		g := NewFlatFamily(3, k, rand.New(rand.NewPCG(53, uint64(k))))
		sweepVariants(t, func(t *testing.T) {
			for j := 0; j < h.Rows(); j++ {
				out := make([]field.Elem, len(keys))
				h.EvalRows(j, 1, keys, out)
				fb := make([]uint64, len(keys))
				fs := make([]float64, len(keys))
				BucketSignBatch(h, g, j, 4096, keys, fb, fs)
				for i, x := range keys {
					if want := h.Eval(j, x); out[i] != want {
						t.Fatalf("k=%d row %d: EvalRows[%d] = %#x, Eval = %#x", k, j, i, out[i], want)
					}
					if want := h.Bucket(j, x, 4096); fb[i] != want {
						t.Fatalf("k=%d row %d: buckets[%d] = %d, Bucket = %d", k, j, i, fb[i], want)
					}
					if want := float64(g.Sign(j, x)); fs[i] != want {
						t.Fatalf("k=%d row %d: signs[%d] = %v, Sign = %v", k, j, i, fs[i], want)
					}
				}
			}
		})
	}
}

// TestFloatBatchVariantsMatchScalar pins the two batch evaluators that park
// the kernel's field values in the float output slice and convert in place —
// SignBatch and Float64Batch — and one-row EvalRows beside them, to the per-key
// scalar API: the k-wise rows of the Lp update path (4-wise signs, 8-wise
// p-stable uniforms, the k = 10 scaling factors) at lengths around the
// kernels' 4- and 8-lane blocks and one past a 2048-update block.
func TestFloatBatchVariantsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewPCG(54, 1))
	all := make([]uint64, 2048+3)
	for i := range all {
		all[i] = r.Uint64()
	}
	copy(all, []uint64{0, 1, field.Modulus - 1, field.Modulus, math.MaxUint64})
	for _, k := range []int{2, 4, 8, 10} {
		f := NewFlatFamily(2, k, rand.New(rand.NewPCG(55, uint64(k))))
		sweepVariants(t, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 8, 9, len(all)} {
				keys := all[:n]
				vals := make([]field.Elem, n)
				signs := make([]float64, n)
				units := make([]float64, n)
				f.EvalRows(1, 1, keys, vals)
				f.SignBatch(1, keys, signs)
				f.Float64Batch(1, keys, units)
				for i, x := range keys {
					if want := f.Eval(1, x); vals[i] != want {
						t.Fatalf("k=%d n=%d: EvalRows[%d] = %#x, Eval = %#x", k, n, i, vals[i], want)
					}
					if want := float64(f.Sign(1, x)); signs[i] != want {
						t.Fatalf("k=%d n=%d: SignBatch[%d] = %v, Sign = %v", k, n, i, signs[i], want)
					}
					if want := f.Float64(1, x); math.Float64bits(units[i]) != math.Float64bits(want) {
						t.Fatalf("k=%d n=%d: Float64Batch[%d] = %v, Float64 = %v", k, n, i, units[i], want)
					}
				}
			}
		})
	}
}

// TestEvalRowsMatchesEval pins the multi-row evaluators, EvalRows and
// Float64Rows, to the scalar Eval and Float64 row by row under every
// variant: row groups starting past row 0 and running to the last row, the
// norm sketches' k = 4 and 8 beside k = 2 and the k = 10 that takes the
// per-row path, at lengths around the 8- and 32-key blocks.
func TestEvalRowsMatchesEval(t *testing.T) {
	r := rand.New(rand.NewPCG(56, 1))
	all := make([]uint64, 300)
	for i := range all {
		all[i] = r.Uint64()
	}
	copy(all, []uint64{0, 1, field.Modulus - 1, field.Modulus, math.MaxUint64})
	for _, k := range []int{2, 4, 8, 10} {
		f := NewFlatFamily(21, k, rand.New(rand.NewPCG(57, uint64(k))))
		sweepVariants(t, func(t *testing.T) {
			for _, n := range []int{0, 1, 7, 8, 9, 33, len(all)} {
				keys := all[:n]
				for _, g := range [][2]int{{0, 1}, {3, 4}, {2, 19}, {0, 21}} {
					j, rows := g[0], g[1]
					vals := make([]field.Elem, rows*n)
					units := make([]float64, rows*n)
					f.EvalRows(j, rows, keys, vals)
					f.Float64Rows(j, rows, keys, units)
					for i := range vals {
						row, x := j+i/n, keys[i%n]
						if want := f.Eval(row, x); vals[i] != want {
							t.Fatalf("k=%d n=%d rows %d+%d: row %d key %#x: EvalRows %#x, Eval %#x", k, n, j, rows, row, x, vals[i], want)
						}
						if want := f.Float64(row, x); math.Float64bits(units[i]) != math.Float64bits(want) {
							t.Fatalf("k=%d n=%d rows %d+%d: row %d key %#x: Float64Rows %v, Float64 %v", k, n, j, rows, row, x, units[i], want)
						}
					}
				}
			}
		})
	}
}
