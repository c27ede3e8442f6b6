package field

import (
	"math/bits"
	"unsafe"
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

// The structured Vandermonde solve and the root finder behind the query-side
// recovery engine (internal/sparse), each pinned to a plain reference by the
// property tests in eval_test.go:
//
//   - VandermondeSolver: the transposed-Vandermonde system
//     Σ_t v_t·a_t^j = y_j (the value solve of Lemma 5 recovery) in O(e²)
//     through the master polynomial Π(x-a_t), per-point synthetic division,
//     and one batched inversion — replacing O(e³) Gaussian elimination with
//     e full inversions.
//   - SplitTester: the roots of a polynomial that is a product of distinct
//     linear factors, found by equal-degree splitting, and the verdict that
//     a polynomial is not one — in time independent of any domain a scan for
//     the roots would have to walk.

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

// SplitTester finds the roots of a monic polynomial f of degree e that is a
// product of e distinct linear factors, and tells a polynomial that is not.
//
// The test: the product of all x - a, a in GF(p), is x^p - x, so f splits
// into distinct linear factors exactly when x^p ≡ x (mod f). With
// p = 2^61 - 1 that is x^(2^61) ≡ x² (mod f) — multiplying by x loses
// nothing unless x² divides f, which is ruled out first: 61 modular
// squarings of a polynomial of degree below e, about 61·1.5·e²
// multiplications, whatever the size of the domain a scan for the roots
// would have to walk.
//
// The roots: (p-1)/2 = 2^60 - 1, so at each root r the polynomial
// u = x^(2^60) - x takes the value r·(χ(r) - 1) for the quadratic character
// χ, and gcd(f, u) is the product of the factors x - r with r zero or a
// square. The test computes x^(2^60) on its way, so on most inputs f is
// split in two with no further exponentiation. Each part g is split again
// the same way by gcd(g, (x+a)^(2^60) - (x+a)) for a = 1, 2, … (equal-degree
// splitting with a fixed shift sequence), until every part is linear. Roots
// that share χ(r+a) land in the same part, so a part split off at shift a
// resumes at a+1. A split polynomial's root set is unique, so the roots are
// the same whichever shifts split them; only their order depends on the
// shifts.
//
// The zero value is ready for use; scratch is reused across calls (no
// allocation once grown), and the parts being split live in the output
// buffer itself, each held by its low coefficients (it is monic) in the
// slots its roots will take.
type SplitTester struct {
	r, want, prod []Elem
}

// Roots returns the e roots of f, monic of degree e >= 0 (f[e] == 1), in
// out[:e] — reusing out's storage, which must not alias f — and true when f
// is a product of e distinct linear factors; otherwise false, and the
// contents of the returned slice are unspecified.
func (st *SplitTester) Roots(f Poly, out []Elem) ([]Elem, bool) {
	e := f.Degree()
	if e >= 2 && (f[0] == 0 && f[1] == 0 || !st.splits(f[:e])) {
		return out[:0], false
	}
	out = append(out[:0], f[:e]...)
	d1 := 0
	if e >= 2 {
		d1 = st.splitAt(out, st.r, 0)
	}
	st.split(out[:d1], 1)
	st.split(out[d1:], 1)
	return out, true
}

// splits reports whether x^(2^61) ≡ x² (mod f), f monic of degree
// e = len(low) >= 2 given by low = f[:e]. It leaves x^(2^60) mod f in st.r.
func (st *SplitTester) splits(low []Elem) bool {
	e := len(low)
	sq := growElems(&st.want, e)
	copy(sq, st.power(low, 0))
	st.squareMod(sq, low)
	// x² mod f is x² itself when e > 2, and x² - f when e == 2.
	for j, c := range sq {
		want := Elem(0)
		if e == 2 {
			want = Neg(low[j])
		} else if j == 2 {
			want = 1
		}
		if c != want {
			return false
		}
	}
	return true
}

// split replaces seg, the low coefficients of a monic g that is a product of
// len(seg) distinct linear factors, with g's roots, splitting by the shifts
// from a on.
func (st *SplitTester) split(seg []Elem, a Elem) {
	for len(seg) > 1 {
		d1 := st.splitAt(seg, st.power(seg, a), a)
		a = Add(a, 1)
		if d1 > 0 && d1 < len(seg) {
			st.split(seg[:d1], a)
			seg = seg[d1:]
		}
	}
	if len(seg) == 1 {
		seg[0] = Neg(seg[0]) // x + c has the root -c
	}
}

// power returns (x+a)^(2^60) mod g in st.r — sixty squarings — for g monic
// of degree d = len(low) >= 2 given by its low coefficients low = g[:d].
func (st *SplitTester) power(low []Elem, a Elem) []Elem {
	r := growElems(&st.r, len(low))
	clear(r)
	r[0], r[1] = a, 1
	for i := 0; i < 60; i++ {
		st.squareMod(r, low)
	}
	return r
}

// splitAt splits g — monic of degree d = len(seg), seg = g[:d], a product of
// distinct linear factors — by g1 = gcd(g, u - (x+a)) for u =
// (x+a)^(2^60) mod g, which it clobbers. It returns d1 = deg g1; when
// 0 < d1 < d, seg[:d1] then holds g1 and seg[d1:] the cofactor g/g1, both by
// their low coefficients, and otherwise seg is unchanged.
func (st *SplitTester) splitAt(seg, u []Elem, a Elem) int {
	d := len(seg)
	u[0], u[1] = Sub(u[0], a), Sub(u[1], 1)
	a1 := growElems(&st.prod, d+1)
	copy(a1, seg)
	a1[d] = 1
	// Euclid: a1 ← a1 mod b, then swap, until b is zero. Each division step
	// cancels a1's top coefficient exactly, so it is dropped, not computed.
	b := Poly(u).trim()
	for len(b) > 0 {
		inv := Inv(b[len(b)-1])
		for len(a1) >= len(b) {
			c := Mul(a1[len(a1)-1], inv)
			off := len(a1) - len(b)
			for j, bj := range b[:len(b)-1] {
				a1[off+j] = Sub(a1[off+j], Mul(c, bj))
			}
			a1 = Poly(a1[:len(a1)-1]).trim()
		}
		a1, b = b, a1
	}
	g1 := a1
	d1 := len(g1) - 1
	if d1 == 0 || d1 == d {
		return d1
	}
	inv := Inv(g1[d1])
	for j := range g1 {
		g1[j] = Mul(g1[j], inv)
	}
	// Cofactor q = g/g1 of degree d2 = d - d1, matched coefficient by
	// coefficient from the top: g_m = Σ_i g1_i·q_(m-i).
	d2 := d - d1
	q := growElems(&st.want, d2+1)
	q[d2] = 1
	for k := d2 - 1; k >= 0; k-- {
		c := seg[k+d1]
		for i := max(0, k+d1-d2); i < d1; i++ {
			c = Sub(c, Mul(g1[i], q[k+d1-i]))
		}
		q[k] = c
	}
	copy(seg, g1[:d1])
	copy(seg[d1:], q[:d2])
	return d1
}

// squareMod replaces r (degree below e = len(r)) with r² mod f, f monic of
// degree e given by its low coefficients low = f[:e]. Since
// x^k ≡ -Σ_j low[j]·x^(k-e+j) for k >= e, column m of the result, taken from
// the top, is
//
//	Σ_{i+j=m} r_i·r_j + Σ_{k>m, k>=e} c_k·(p - low[m-k+e])
//
// with c_k the final value of column k >= e. Each column sums its products
// in a 192-bit accumulator, which no column can overflow, and is reduced
// once, without a branch: a modular add per product would mispredict every
// other time.
func (st *SplitTester) squareMod(r []Elem, low []Elem) {
	e := len(r)
	col := growElems(&st.prod, 2*e-1)
	for m := 2*e - 2; m >= 0; m-- {
		var h0, h1, h2 uint64
		for i := max(0, m-e+1); i < m-i; i++ {
			h0, h1, h2 = mac(h0, h1, h2, uint64(r[i]), uint64(r[m-i]))
		}
		h0, h1, h2 = h0<<1, h1<<1|h0>>63, h2<<1|h1>>63 // the cross terms count twice
		if m%2 == 0 {
			h0, h1, h2 = mac(h0, h1, h2, uint64(r[m/2]), uint64(r[m/2]))
		}
		for k := max(m+1, e); k <= min(2*e-2, m+e); k++ {
			h0, h1, h2 = mac(h0, h1, h2, uint64(col[k]), Modulus-uint64(low[m-k+e]))
		}
		// 2^64 ≡ 2^3 and 2^128 ≡ 2^6 (mod 2^61 - 1).
		col[m] = reduce(h0&Modulus + h0>>61 + (h1<<3)&Modulus + h1>>58 + (h2<<6)&Modulus + h2>>55)
	}
	copy(r, col[:e])
}

// mac adds x·y to the 192-bit sum h2:h1:h0.
func mac(h0, h1, h2, x, y uint64) (uint64, uint64, uint64) {
	hi, lo := bits.Mul64(x, y)
	var c uint64
	h0, c = bits.Add64(h0, lo, 0)
	h1, c = bits.Add64(h1, hi, c)
	return h0, h1, h2 + c
}
