package field

import (
	"unsafe"

	"repro/internal/kernel"
)

// Words reinterprets a []Elem as the raw []uint64 view the internal/kernel
// layer dispatches on — a zero-copy cast, valid because Elem is a uint64 in
// canonical form. Writes through the view are writes to the elements.
func Words(es []Elem) []uint64 {
	if len(es) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&es[0])), len(es))
}

// Fast multi-point polynomial evaluation and the structured Vandermonde
// solve behind the query-side recovery engine (internal/sparse). Three
// kernels, each pinned bit-identical to its scalar reference by the property
// tests in eval_test.go, and the exact split test (SplitTester, at the end of
// this file) that lets a dense decode skip the root scan:
//
//   - FDStepper: evaluation at the consecutive points x0, x0+1, x0+2, … by
//     forward finite differences. After an O(e²) setup the degree-e Horner
//     chain (e dependent Muls per point) collapses to e independent Adds per
//     point — the access pattern of the Chien scan, which probes rev(loc) at
//     a_i = 1..n.
//   - Poly.EvalBatch: multi-point Horner for arbitrary point sets, dispatched
//     through internal/kernel — 4-lane transposed chains on AVX2, a plain
//     per-point loop on the scalar reference — so the multiplier pipeline
//     stays full instead of one chain draining per point.
//   - VandermondeSolver: the transposed-Vandermonde system
//     Σ_t v_t·a_t^j = y_j (the value solve of Lemma 5 recovery) in O(e²)
//     through the master polynomial Π(x-a_t), per-point synthetic division,
//     and one batched inversion — replacing O(e³) Gaussian elimination with
//     e full inversions.

// FDStepper evaluates a polynomial at the consecutive points x0, x0+1, …
// using forward finite differences: d[k] holds Δᵏp at the current point, and
// one step updates d[k] += d[k+1] for all k — deg(p) field additions, no
// multiplications. Field arithmetic is exact, so every value is bit-identical
// to Poly.Eval at the same point.
//
// The zero value is ready for Reset. Resetting costs deg+1 Horner
// evaluations plus an O(deg²) difference table — worth it from roughly deg
// consecutive points onward.
type FDStepper struct {
	d []Elem
}

// NewFDStepper returns a stepper positioned at x0.
func NewFDStepper(p Poly, x0 Elem) *FDStepper {
	fd := &FDStepper{}
	fd.Reset(p, x0)
	return fd
}

// Reset repositions the stepper at x0 for polynomial p, reusing its internal
// table (no allocation once the table has grown to the largest degree seen).
func (fd *FDStepper) Reset(p Poly, x0 Elem) {
	deg := p.Degree()
	if deg < 0 {
		// Zero polynomial: every value is 0.
		fd.d = append(fd.d[:0], 0)
		return
	}
	if cap(fd.d) < deg+1 {
		fd.d = make([]Elem, deg+1)
	}
	d := fd.d[:deg+1]
	fd.d = d
	// d[j] = p(x0 + j), then difference in place: after pass k,
	// d[j] = Δᵏp(x0 + j - k) for j >= k, so d[k] = Δᵏp(x0).
	x := x0
	for j := 0; j <= deg; j++ {
		d[j] = p.Eval(x)
		x = Add(x, 1)
	}
	for k := 1; k <= deg; k++ {
		for j := deg; j >= k; j-- {
			d[j] = Sub(d[j], d[j-1])
		}
	}
}

// Next returns p at the current point and advances to the next one. The i-th
// call after Reset(p, x0) returns exactly p.Eval(x0 + i).
func (fd *FDStepper) Next() Elem {
	d := fd.d
	v := d[0]
	for k := 0; k+1 < len(d); k++ {
		d[k] = Add(d[k], d[k+1])
	}
	return v
}

// NextBlock fills out with the next len(out) consecutive values — out[t] is
// what the (t+1)-th of len(out) Next calls would return, bit for bit. The
// block form amortizes one kernel dispatch over the whole run and lets the
// vector backends update the difference table SIMD-wide, which is where the
// Chien scan of sparse recovery spends its time.
func (fd *FDStepper) NextBlock(out []Elem) {
	kernel.FDScan(Words(fd.d), Words(out))
}

// EvalBatch evaluates p at every point of xs into out (len(out) must be at
// least len(xs)) through the dispatched kernel: four transposed Horner chains
// per SIMD step on vector backends, a straight per-point Horner loop on the
// scalar one. Per point the operation sequence is exact mod-p Horner in
// canonical form, so results are bit-identical to Eval across all backends.
func (p Poly) EvalBatch(xs []Elem, out []Elem) {
	kernel.PolyEvalBatch(Words(p), Words(xs), Words(out))
}

// VandermondeSolver solves transposed Vandermonde systems
//
//	Σ_t v_t · points[t]^j = y[j],  j = 0..e-1,
//
// in O(e²) field operations — the value solve of Lemma 5 recovery, where the
// points are the decoded support locations and y is the syndrome prefix.
//
// Method: with M(x) = Π_t (x - a_t) and Q_t(x) = M(x)/(x - a_t), the
// Lagrange basis polynomial through a_t is Q_t/Q_t(a_t), and the solution of
// the transposed system is v_t = (Σ_j q_{t,j}·y_j) / Q_t(a_t) — the
// transpose of interpolation. Each Q_t comes from one synthetic division of
// M, and all denominators are inverted together by one batched (Montgomery
// trick) inversion: one Inv plus O(e) Muls instead of e ladder inversions.
//
// The zero value is ready for use; scratch is reused across calls (no
// allocation once grown). The system has a unique solution whenever the
// points are distinct — the same elements Gaussian elimination would
// produce, so decodes are bit-identical to the generic SolveLinear path.
type VandermondeSolver struct {
	master []Elem // Π (x - a_t), degree e
	quot   []Elem // synthetic-division quotient Q_t
	num    []Elem // numerators Σ_j q_{t,j} y_j
	den    []Elem // denominators Q_t(a_t) = M'(a_t)
	pref   []Elem // batched-inversion prefix products
}

func growElems(buf *[]Elem, n int) []Elem {
	if cap(*buf) < n {
		*buf = make([]Elem, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Solve writes the solution into out (len(out) must be at least e =
// len(points); len(y) must be at least e). It returns false when the system
// is singular, i.e. when two points coincide.
func (vs *VandermondeSolver) Solve(points, y, out []Elem) bool {
	e := len(points)
	if e == 0 {
		return true
	}
	// Master polynomial M(x) = Π (x - a_t), built in place low-to-high:
	// multiplying by (x - a) maps m[j] ← m[j-1] - a·m[j], walked top-down so
	// each old coefficient is read before it is overwritten.
	m := growElems(&vs.master, e+1)
	m[0] = 1
	for d, a := range points {
		m[d+1] = m[d]
		for j := d; j >= 1; j-- {
			m[j] = Sub(m[j-1], Mul(a, m[j]))
		}
		m[0] = Mul(Neg(a), m[0])
	}
	q := growElems(&vs.quot, e)
	num := growElems(&vs.num, e)
	den := growElems(&vs.den, e)
	for t, a := range points {
		// Q_t = M / (x - a_t) by synthetic division (exact: a_t is a root).
		q[e-1] = m[e]
		for j := e - 2; j >= 0; j-- {
			q[j] = Add(m[j+1], Mul(a, q[j+1]))
		}
		// Numerator ⟨q, y⟩ and denominator Q_t(a_t), fused over one pass.
		var n Elem
		d := q[e-1]
		for j := e - 2; j >= 0; j-- {
			d = Add(Mul(d, a), q[j])
		}
		for j := 0; j < e; j++ {
			n = Add(n, Mul(q[j], y[j]))
		}
		num[t], den[t] = n, d
	}
	// Batched inversion of all denominators: prefix products, one Inv, then
	// unwind. A zero anywhere collapses the full product to zero.
	pref := growElems(&vs.pref, e)
	pref[0] = den[0]
	for t := 1; t < e; t++ {
		pref[t] = Mul(pref[t-1], den[t])
	}
	if pref[e-1] == 0 {
		return false
	}
	inv := Inv(pref[e-1])
	for t := e - 1; t >= 1; t-- {
		out[t] = Mul(num[t], Mul(inv, pref[t-1]))
		inv = Mul(inv, den[t])
	}
	out[0] = Mul(num[0], inv)
	return true
}

// SplitTester decides whether a monic polynomial is a product of distinct
// linear factors over the field — whether it has as many roots as its degree
// — without looking for them. The product of all x - a, a in GF(p), is
// x^p - x, so f splits into distinct linear factors exactly when f divides
// x^p - x, i.e. when x^p ≡ x (mod f). With p = 2^61 - 1 the test runs as
// x^(2^61) ≡ x² (mod f): 61 modular squarings of a polynomial of degree below
// deg f, about 61·1.5·(deg f)² multiplications, whatever the size of the
// domain a root search would have to walk.
//
// The Chien scan of sparse recovery uses it as its gate: a locator that does
// not split cannot have deg-many roots among the n candidate positions, and
// the n-point scan that would discover as much is skipped.
//
// The zero value is ready for use; scratch is reused across calls.
type SplitTester struct {
	r, want, prod []Elem
}

// Splits reports whether f, monic of degree e >= 1 (f[e] == 1), has e
// distinct roots in the field.
func (st *SplitTester) Splits(f Poly) bool {
	e := f.Degree()
	if e >= 1 && f[0] == 0 {
		// Root 0: split the factor x off; a second one is a repeated root.
		f, e = f[1:], e-1
		if e >= 1 && f[0] == 0 {
			return false
		}
	}
	if e <= 1 {
		return true
	}
	// f(0) != 0 from here on, so x is invertible mod f and
	// x^(p+1) ≡ x² (mod f) is equivalent to x^p ≡ x (mod f).
	r := growElems(&st.r, e)
	clear(r)
	r[1] = 1
	st.squareMod(r, f[:e])
	want := growElems(&st.want, e)
	copy(want, r)
	for i := 1; i < 61; i++ {
		st.squareMod(r, f[:e])
	}
	for i := range r {
		if r[i] != want[i] {
			return false
		}
	}
	return true
}

// squareMod replaces r (degree below e = len(r)) with r² mod f, f monic of
// degree e given by its low coefficients low = f[:e].
func (st *SplitTester) squareMod(r []Elem, low []Elem) {
	e := len(r)
	prod := growElems(&st.prod, 2*e-1)
	clear(prod)
	for i, ri := range r {
		if ri == 0 {
			continue
		}
		prod[2*i] = Add(prod[2*i], Mul(ri, ri))
		ri2 := Add(ri, ri)
		for j := i + 1; j < e; j++ {
			prod[i+j] = Add(prod[i+j], Mul(ri2, r[j]))
		}
	}
	// x^k ≡ -Σ_j low[j]·x^(k-e+j) for k >= e, top coefficient first.
	for k := 2*e - 2; k >= e; k-- {
		c := prod[k]
		if c == 0 {
			continue
		}
		for j, fj := range low {
			prod[k-e+j] = Sub(prod[k-e+j], Mul(c, fj))
		}
	}
	copy(r, prod[:e])
}
