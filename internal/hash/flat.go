package hash

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"unsafe"

	"repro/internal/field"
	"repro/internal/kernel"
)

// invModulus converts a field element to a unit-interval real with one
// multiply instead of a divide. Every Float64 derivation in the package —
// scalar and batched — goes through toUnit, so the two paths are bit-identical.
var invModulus = 1 / float64(field.Modulus)

// toUnit maps a field value to (0, 1]: never zero, so callers may divide by
// powers of it (the t_i^{-1/p} scaling factors of Figure 1).
func toUnit(v field.Elem) float64 { return (float64(v) + 1) * invModulus }

// Bucket maps a field value v to a bucket in [0, m) by Lemire's multiply-shift
// range reduction: floor(v·m / 2^61), computed as the high word of the 128-bit
// product (v<<3)·m. It replaces the hardware-divide `v % m` on every sketch
// row. For v uniform over the field, each bucket's probability deviates from
// 1/m by at most 1/(2^61-1) — the same discretization bias budget as the mod
// reduction it replaces, so all pairwise-independence arguments go through
// unchanged. v < 2^61 always (canonical field form), so v<<3 cannot overflow,
// and the result is < m for every m >= 1.
func Bucket(v field.Elem, m uint64) uint64 {
	hi, _ := bits.Mul64(uint64(v)<<3, m)
	return hi
}

// signFloat maps a field value to ±1.0 from its low bit, branch-free.
func signFloat(v field.Elem) float64 {
	return float64(int64(uint64(v)&1)<<1 - 1)
}

// FlatFamily is a structure-of-arrays k-wise independent hash family: `rows`
// independent degree-(k-1) polynomials over GF(2^61-1) whose coefficients all
// live in one contiguous slice, row-major. The flat layout is what the batch
// kernels below iterate over — one row's two (or k) coefficients stay in
// registers for a whole batch.
type FlatFamily struct {
	rows int
	k    int
	coef []field.Elem // len rows*k; coef[j*k+i] multiplies x^i in row j
}

// NewFlatFamily draws rows independent k-wise functions from r, row by row.
// k must be >= 1; k=2 gives the pairwise families used by count-sketch, and
// the Lp sampler passes the paper's k = 10*ceil(1/|p-1|).
func NewFlatFamily(rows, k int, r *rand.Rand) *FlatFamily {
	if rows < 1 {
		panic("hash: rows must be >= 1")
	}
	if k < 1 {
		panic("hash: k must be >= 1")
	}
	coef := make([]field.Elem, rows*k)
	for i := range coef {
		coef[i] = field.New(r.Uint64())
	}
	return &FlatFamily{rows: rows, k: k, coef: coef}
}

// Rows returns the number of independent functions in the family.
func (f *FlatFamily) Rows() int { return f.rows }

// K returns the independence parameter shared by all rows.
func (f *FlatFamily) K() int { return f.k }

// rowCoef returns row j's coefficient slice (capacity-clamped so appends by a
// buggy caller cannot bleed into the next row).
func (f *FlatFamily) rowCoef(j int) []field.Elem {
	return f.coef[j*f.k : (j+1)*f.k : (j+1)*f.k]
}

// Equal reports whether two families are the same polynomials — the same-seed
// replica check used by every Merge path.
func (f *FlatFamily) Equal(other *FlatFamily) bool {
	if other == nil || f.rows != other.rows || f.k != other.k {
		return false
	}
	return slices.Equal(f.coef, other.coef)
}

// Eval returns row j's field value at key x.
func (f *FlatFamily) Eval(j int, x uint64) field.Elem { return evalPoly(f.rowCoef(j), x) }

// Bucket maps key x to a bucket in [0, m) through row j.
func (f *FlatFamily) Bucket(j int, x, m uint64) uint64 { return Bucket(f.Eval(j, x), m) }

// Sign maps key x to ±1 through row j.
func (f *FlatFamily) Sign(j int, x uint64) int64 {
	if uint64(f.Eval(j, x))&1 == 1 {
		return 1
	}
	return -1
}

// Float64 maps key x to a uniform real in (0, 1] through row j.
func (f *FlatFamily) Float64(j int, x uint64) float64 { return toUnit(f.Eval(j, x)) }

// EvalRows writes the field values of rows j..j+rows-1 at each key of xs into
// out, row after row: row j+r's value at xs[t] lands in out[r*len(xs)+t].
// The rows share one kernel call, which on the IFMA tier builds each key
// block's powers once for all of them and reduces each row's sum once; a
// single row runs the one-row Horner kernel.
func (f *FlatFamily) EvalRows(j, rows int, xs []uint64, out []field.Elem) {
	kernel.PolyEvalRows(field.Words(f.coef[j*f.k:(j+rows)*f.k]), f.k, xs, field.Words(out[:rows*len(xs)]))
}

// Float64Rows is EvalRows' unit-interval form: row j+r's value for xs[t] in
// out[r*len(xs)+t], bit-identical to scalar Float64 per row and key.
func (f *FlatFamily) Float64Rows(j, rows int, xs []uint64, out []float64) {
	out = out[:rows*len(xs)]
	f.EvalRows(j, rows, xs, floatElems(out))
	for t, v := range floatElems(out) {
		out[t] = toUnit(v)
	}
}

// SignBatch writes row j's sign (±1.0) for each key of xs into out[:len(xs)].
// Like Float64Batch it evaluates in place: the kernel writes the field values
// into out's own storage (a stack buffer handed to the dispatched call would
// escape to the heap), then each word is converted where it lies.
func (f *FlatFamily) SignBatch(j int, xs []uint64, out []float64) {
	out = out[:len(xs)]
	f.EvalRows(j, 1, xs, floatElems(out))
	for t, v := range floatElems(out) {
		out[t] = signFloat(v)
	}
}

// Float64Batch writes row j's unit-interval value for each key of xs into
// out[:len(xs)], bit-identical to scalar Float64 per key.
func (f *FlatFamily) Float64Batch(j int, xs []uint64, out []float64) { f.Float64Rows(j, 1, xs, out) }

// BucketSignBatch is the fused count-sketch row kernel: one pass over xs
// evaluating bucket row j of h and sign row j of g together. For the pairwise
// (k=2) families every sketch row uses, each key costs two a·x+b folds — the
// two Horner chains collapse to a single loop with all four coefficients in
// registers — plus one Lemire multiply, with no divide anywhere.
func BucketSignBatch(h, g *FlatFamily, j int, m uint64, xs []uint64, buckets []uint64, signs []float64) {
	hc, gc := h.rowCoef(j), g.rowCoef(j)
	buckets = buckets[:len(xs)]
	signs = signs[:len(xs)]
	if len(hc) == 2 && len(gc) == 2 {
		kernel.BucketSign2(uint64(hc[0]), uint64(hc[1]), uint64(gc[0]), uint64(gc[1]), m,
			xs, buckets, signs)
		return
	}
	for t, x := range xs {
		buckets[t] = Bucket(evalPoly(hc, x), m)
		signs[t] = signFloat(evalPoly(gc, x))
	}
}

// ---------------------------------------------------------------------------
// Coefficient-slice kernels over one row
// ---------------------------------------------------------------------------

// evalPoly is Horner evaluation of the degree-(len(coef)-1) polynomial at x,
// with the pairwise case — every count-sketch row, also on the
// scalar Process paths — specialized to a single a·x+b fold.
func evalPoly(coef []field.Elem, x uint64) field.Elem {
	if len(coef) == 2 {
		return field.Add(field.Mul(coef[1], field.New(x)), coef[0])
	}
	xe := field.New(x)
	var acc field.Elem
	for i := len(coef) - 1; i >= 0; i-- {
		acc = field.Add(field.Mul(acc, xe), coef[i])
	}
	return acc
}

// floatElems views a []float64 as field elements occupying the same memory
// (both are 8-byte words; field.Words is the same cast one level down): the
// batch evaluators park field values in the output slice, then convert each
// word where it lies.
func floatElems(fs []float64) []field.Elem {
	return unsafe.Slice((*field.Elem)(unsafe.Pointer(unsafe.SliceData(fs))), len(fs))
}
