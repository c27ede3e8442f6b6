package field

// Poly is a dense polynomial over GF(2^61-1) with coefficient i of x^i at
// index i. The zero polynomial is the empty (or all-zero) slice.
type Poly []Elem

// Degree returns the degree of p, or -1 for the zero polynomial.
func (p Poly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// trim removes trailing zero coefficients.
func (p Poly) trim() Poly {
	d := p.Degree()
	return p[:d+1]
}

// Eval evaluates p at x by Horner's rule.
func (p Poly) Eval(x Elem) Elem {
	var acc Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = Add(Mul(acc, x), p[i])
	}
	return acc
}

// Reverse returns the reversal x^d * p(1/x) where d = Degree(p). A nonzero
// alpha is a root of Reverse(p) iff 1/alpha is a root of p — the reversed
// locator Π(x - a_i) of a sparse vector has its support points a_i as roots.
func (p Poly) Reverse() Poly {
	d := p.Degree()
	if d < 0 {
		return nil
	}
	r := make(Poly, d+1)
	for i := 0; i <= d; i++ {
		r[i] = p[d-i]
	}
	return r
}

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// BerlekampMassey returns the minimal connection polynomial C with C[0] = 1
// such that for all j >= L (L = Degree(C)):
//
//	s[j] + C[1]*s[j-1] + ... + C[L]*s[j-L] = 0.
//
// For a syndrome sequence s_j = sum_i v_i a_i^j of an e-sparse vector with
// distinct nonzero evaluation points a_i and len(s) >= 2e, the result is
// exactly the locator polynomial prod_i (1 - a_i x), which is the fact the
// sparse recovery of Lemma 5 relies on.
func BerlekampMassey(s []Elem) Poly {
	c := Poly{1} // current connection polynomial
	b := Poly{1} // copy at last length change
	var l int    // current LFSR length
	m := 1       // steps since last length change
	bd := Elem(1)
	for i := 0; i < len(s); i++ {
		// discrepancy d = s[i] + sum_{k=1..l} c[k] s[i-k]
		d := s[i]
		for k := 1; k <= l && k < len(c); k++ {
			d = Add(d, Mul(c[k], s[i-k]))
		}
		if d == 0 {
			m++
			continue
		}
		// c(x) -= (d/bd) * x^m * b(x)
		coef := Mul(d, Inv(bd))
		if 2*l <= i {
			t := c.Clone()
			c = subShifted(c, b, coef, m)
			l = i + 1 - l
			b = t
			bd = d
			m = 1
		} else {
			c = subShifted(c, b, coef, m)
			m++
		}
	}
	return c.trim()
}

// subShifted returns c - coef * x^shift * b.
func subShifted(c, b Poly, coef Elem, shift int) Poly {
	n := len(b) + shift
	if len(c) > n {
		n = len(c)
	}
	out := make(Poly, n)
	copy(out, c)
	for i, bi := range b {
		if bi == 0 {
			continue
		}
		out[i+shift] = Sub(out[i+shift], Mul(coef, bi))
	}
	return out
}

// SolveLinear solves the square system A x = y in place by Gaussian
// elimination with partial (first-nonzero) pivoting. It returns false when A
// is singular. A and y are clobbered. Intended for the small (e <= s)
// Vandermonde value-solve inside sparse recovery, not as a general solver.
func SolveLinear(a [][]Elem, y []Elem) ([]Elem, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		// find pivot
		piv := -1
		for r := col; r < n; r++ {
			if a[r][col] != 0 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		y[col], y[piv] = y[piv], y[col]
		inv := Inv(a[col][col])
		for c := col; c < n; c++ {
			a[col][c] = Mul(a[col][c], inv)
		}
		y[col] = Mul(y[col], inv)
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for c := col; c < n; c++ {
				a[r][c] = Sub(a[r][c], Mul(f, a[col][c]))
			}
			y[r] = Sub(y[r], Mul(f, y[col]))
		}
	}
	return y, true
}
