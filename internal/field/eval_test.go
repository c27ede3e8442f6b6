package field

import (
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func randPoly(r *rand.Rand, deg int) Poly {
	p := make(Poly, deg+1)
	for i := range p {
		p[i] = New(r.Uint64())
	}
	// Force the exact degree so Degree() = deg.
	for p[deg] == 0 {
		p[deg] = New(r.Uint64())
	}
	return p
}

// TestPropertyVandermondeSolveMatchesGaussian: the O(e²) structured solver
// must return exactly the unique solution of the transposed Vandermonde
// system — cross-checked against forward substitution into the system and
// against the generic Gaussian SolveLinear it replaces.
func TestPropertyVandermondeSolveMatchesGaussian(t *testing.T) {
	f := func(seed uint64, eRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 4321))
		e := 1 + int(eRaw)%12
		// Distinct nonzero points (the decoded support locations a_i = i+1).
		seen := map[Elem]bool{}
		points := make([]Elem, 0, e)
		for len(points) < e {
			a := New(uint64(r.IntN(1<<20)) + 1)
			if a != 0 && !seen[a] {
				seen[a] = true
				points = append(points, a)
			}
		}
		truth := make([]Elem, e)
		for t := range truth {
			truth[t] = New(r.Uint64())
		}
		// y_j = Σ_t truth_t · a_t^j — the syndrome prefix of the vector.
		y := make([]Elem, e)
		for j := 0; j < e; j++ {
			for t := range points {
				y[j] = Add(y[j], Mul(truth[t], Pow(points[t], uint64(j))))
			}
		}
		var vs VandermondeSolver
		out := make([]Elem, e)
		if !vs.Solve(points, y, out) {
			return false
		}
		for t := range truth {
			if out[t] != truth[t] {
				return false
			}
		}
		// Bit-identity with the generic Gaussian path.
		mat := make([][]Elem, e)
		yy := make([]Elem, e)
		for j := 0; j < e; j++ {
			mat[j] = make([]Elem, e)
			for t, a := range points {
				mat[j][t] = Pow(a, uint64(j))
			}
			yy[j] = y[j]
		}
		gauss, ok := SolveLinear(mat, yy)
		if !ok {
			return false
		}
		for t := range gauss {
			if out[t] != gauss[t] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestVandermondeSolveSingular: coincident points make the system singular
// and must be reported, not mis-solved.
func TestVandermondeSolveSingular(t *testing.T) {
	var vs VandermondeSolver
	out := make([]Elem, 2)
	if vs.Solve([]Elem{5, 5}, []Elem{1, 2}, out) {
		t.Error("repeated points must be singular")
	}
	if !vs.Solve(nil, nil, nil) {
		t.Error("empty system is trivially solvable")
	}
}

// bmRoundTrip builds the 2s power-sum syndromes of an e-sparse vector,
// runs Berlekamp-Massey, and checks the result is exactly the locator
// polynomial Π (1 - a_i x): degree e, constant term 1, and the reversed
// polynomial vanishing precisely on the support points. It returns false
// only on a genuine BM failure.
func bmRoundTrip(t *testing.T, n, s int, support map[int]int64) bool {
	t.Helper()
	synd := make([]Elem, 2*s)
	for j := range synd {
		for i, v := range support {
			synd[j] = Add(synd[j], Mul(FromInt64(v), Pow(New(uint64(i)+1), uint64(j))))
		}
	}
	loc := BerlekampMassey(synd)
	e := len(support)
	if loc.Degree() != e {
		t.Logf("n=%d s=%d |supp|=%d: locator degree %d", n, s, e, loc.Degree())
		return false
	}
	if e > 0 && loc[0] != 1 {
		t.Logf("locator constant term %d, want 1", loc[0])
		return false
	}
	rev := loc.Reverse()
	roots := 0
	for i := 0; i < n; i++ {
		isRoot := rev.Eval(New(uint64(i)+1)) == 0
		if isRoot != (support[i] != 0) {
			t.Logf("position %d: root=%v, in support=%v", i, isRoot, support[i] != 0)
			return false
		}
		if isRoot {
			roots++
		}
	}
	return roots == e
}

// TestPropertyBerlekampMasseyRoundTrip: for random s-sparse vectors the
// minimal connection polynomial of the syndrome sequence is exactly the
// support locator — the identity Lemma 5 recovery rests on.
func TestPropertyBerlekampMasseyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 0xB512))
		n := 16 + r.IntN(500)
		s := 1 + r.IntN(10)
		e := r.IntN(s + 1)
		support := map[int]int64{}
		for len(support) < e {
			v := int64(r.IntN(2000)) - 1000
			if v != 0 {
				support[r.IntN(n)] = v
			}
		}
		return bmRoundTrip(t, n, s, support)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzBerlekampMassey feeds adversarial support sets (positions and values
// decoded from raw bytes, including repeated positions, canceling values and
// boundary magnitudes) through the same round trip.
func FuzzBerlekampMassey(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 5})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n, s = 256, 8
		support := map[int]int64{}
		for len(data) >= 3 && len(support) < s {
			pos := int(binary.LittleEndian.Uint16(data)) % n
			val := int64(int8(data[2]))
			data = data[3:]
			support[pos] += val
		}
		for i, v := range support {
			if v == 0 {
				delete(support, i)
			}
		}
		if !bmRoundTrip(t, n, s, support) {
			t.Errorf("round trip failed for support %v", support)
		}
	})
}

// polyFromRoots returns the monic polynomial Π (x - a) over the given roots.
func polyFromRoots(roots []Elem) Poly {
	p := Poly{1}
	for _, a := range roots {
		q := make(Poly, len(p)+1)
		for i, c := range p {
			q[i+1] = Add(q[i+1], c)
			q[i] = Sub(q[i], Mul(a, c))
		}
		p = q
	}
	return p
}

func polyMul(a, b Poly) Poly {
	out := make(Poly, len(a)+len(b)-1)
	for i, x := range a {
		for j, y := range b {
			out[i+j] = Add(out[i+j], Mul(x, y))
		}
	}
	return out
}

// nonResidue draws c with c^((p-1)/2) = -1, so that x² - c is irreducible.
func nonResidue(r *rand.Rand) Elem {
	for {
		c := New(r.Uint64())
		if c != 0 && Pow(c, (Modulus-1)/2) == Elem(Modulus-1) {
			return c
		}
	}
}

// TestSplitTesterKnownFactorizations: products of e distinct roots are
// accepted for every e = 1..12 (roots 0 and p-1 included), and a repeated
// root, a doubled root at 0, an irreducible quadratic factor and random monic
// polynomials (which split with probability 1/e!) are rejected.
func TestSplitTesterKnownFactorizations(t *testing.T) {
	r := rand.New(rand.NewPCG(81, 82))
	var st SplitTester
	var buf []Elem
	splits := func(f Poly) bool {
		var ok bool
		buf, ok = st.Roots(f, buf)
		return ok
	}
	for e := 1; e <= 12; e++ {
		for trial := 0; trial < 40; trial++ {
			roots := distinctRoots(r, e)
			if !splits(polyFromRoots(roots)) {
				t.Fatalf("e=%d: product of distinct roots %v rejected", e, roots)
			}
			if e >= 2 {
				roots[r.IntN(e-1)+1] = roots[0]
				if splits(polyFromRoots(roots)) {
					t.Fatalf("e=%d: repeated root %d accepted", e, roots[0])
				}
			}
			if e >= 3 {
				quad := Poly{Neg(nonResidue(r)), 0, 1}
				if splits(polyMul(polyFromRoots(roots[2:]), quad)) {
					t.Fatalf("e=%d: irreducible quadratic factor accepted", e)
				}
			}
		}
	}
	if !splits(Poly{0, 1}) || !splits(Poly{5, 1}) || !splits(polyFromRoots([]Elem{0, Elem(Modulus - 1)})) {
		t.Fatal("x, x+5 or x(x+1) rejected")
	}
	if splits(Poly{0, 0, 1}) || splits(polyMul(Poly{0, 0, 1}, Poly{3, 1})) {
		t.Fatal("a double root at 0 accepted")
	}
	// Degree 2 against an independent oracle: x² + bx + c splits into
	// distinct factors iff its discriminant is a nonzero square.
	for trial := 0; trial < 300; trial++ {
		b, c := New(r.Uint64()), New(r.Uint64())
		disc := Sub(Mul(b, b), Mul(4, c))
		want := disc != 0 && Pow(disc, (Modulus-1)/2) == 1
		if got := splits(Poly{c, b, 1}); got != want {
			t.Fatalf("x²+%dx+%d: Roots reports %v, discriminant says %v", b, c, got, want)
		}
	}
	for trial := 0; trial < 100; trial++ {
		f := randPoly(r, 8+r.IntN(5))
		f[len(f)-1] = 1
		if splits(f) {
			t.Fatalf("random monic polynomial of degree %d accepted", len(f)-1)
		}
	}
}

// distinctRoots draws e distinct field elements, one in eight of them from
// {0, 1, 2, p-3, p-2, p-1} so that the edges of the field turn up.
func distinctRoots(r *rand.Rand, e int) []Elem {
	seen := map[Elem]bool{}
	var roots []Elem
	for len(roots) < e {
		a := New(r.Uint64())
		if r.IntN(8) == 0 {
			a = Sub(Elem(r.IntN(3)), Elem(3*r.IntN(2)))
		}
		if !seen[a] {
			seen[a] = true
			roots = append(roots, a)
		}
	}
	return roots
}

// TestPropertyRootsFindEveryFactor: on products of 1-12 distinct linear
// factors with roots anywhere in the field, Roots returns exactly the root
// set, whatever the buffer it is handed; the same product times a repeated
// linear factor, or times an irreducible quadratic, is reported not split.
func TestPropertyRootsFindEveryFactor(t *testing.T) {
	var st SplitTester
	f := func(seed uint64, eRaw uint8, capRaw uint8) bool {
		r := rand.New(rand.NewPCG(seed, 0x2007))
		e := 1 + int(eRaw)%12
		roots := distinctRoots(r, e)
		got, ok := st.Roots(polyFromRoots(roots), make([]Elem, 0, int(capRaw)%16))
		if !ok || len(got) != e {
			t.Logf("roots %v: Roots = %v, %v", roots, got, ok)
			return false
		}
		want := slices.Clone(roots)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Logf("roots %v: Roots = %v", want, got)
			return false
		}
		twice := polyFromRoots(append(roots, roots[r.IntN(e)]))
		quad := polyMul(polyFromRoots(roots), Poly{Neg(nonResidue(r)), 0, 1})
		if _, ok := st.Roots(twice, nil); ok {
			t.Logf("roots %v: a repeated root accepted", roots)
			return false
		}
		if _, ok := st.Roots(quad, nil); ok {
			t.Logf("roots %v: an irreducible quadratic factor accepted", roots)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSquareModMatchesSchoolbook pins the lazily reduced squareMod to
// squaring and reducing with one modular operation per product, for every
// degree 1..70, with the extreme coefficients 0 and p-1 mixed in.
func TestSquareModMatchesSchoolbook(t *testing.T) {
	r := rand.New(rand.NewPCG(83, 84))
	var st SplitTester
	for e := 1; e <= 70; e++ {
		for trial := 0; trial < 20; trial++ {
			low, x := make([]Elem, e), make([]Elem, e)
			for i := range low {
				low[i], x[i] = New(r.Uint64()), New(r.Uint64())
				if r.IntN(3) == 0 {
					low[i], x[i] = 0, Elem(Modulus-1)
				}
			}
			want := make([]Elem, 2*e-1)
			for i := range x {
				for j := range x {
					want[i+j] = Add(want[i+j], Mul(x[i], x[j]))
				}
			}
			for k := 2*e - 2; k >= e; k-- {
				for j, fj := range low {
					want[k-e+j] = Sub(want[k-e+j], Mul(want[k], fj))
				}
			}
			st.squareMod(x, low)
			if !slices.Equal(x, want[:e]) {
				t.Fatalf("e=%d: squareMod %v, schoolbook %v", e, x, want[:e])
			}
		}
	}
}
