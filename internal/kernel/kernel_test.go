package kernel

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// vectorTables returns every non-scalar table this CPU can execute: the
// selectable variants (available) plus the test-only alternates (flavors
// detection skipped in favor of a better one, like the VPMULUDQ AVX-512
// modmul on an IFMA machine). All of them get pinned against scalar.
func vectorTables() []*table {
	return append(append([]*table{}, available...), testAltTables...)
}

// restoreSelection re-applies the process's startup kernel selection after a
// test has called Select or initFromEnv.
func restoreSelection(t *testing.T) {
	t.Cleanup(func() {
		if err := initFromEnv(os.Getenv(EnvVar)); err != nil {
			t.Fatalf("restoring kernel selection: %v", err)
		}
	})
}

func TestSelectUnknownVariant(t *testing.T) {
	restoreSelection(t)
	before := Active()
	if err := Select("bogus"); err == nil {
		t.Fatal("Select(\"bogus\") succeeded, want error")
	}
	if got := Active(); got != before {
		t.Fatalf("failed Select changed active variant: %q -> %q", before, got)
	}
}

func TestSelectUnavailableFallsBackToScalar(t *testing.T) {
	restoreSelection(t)
	available := map[string]bool{}
	for _, v := range Variants() {
		available[v] = true
	}
	for _, name := range []string{AVX2, AVX512, NEON} {
		if available[name] {
			continue
		}
		if err := Select(name); err != nil {
			t.Fatalf("Select(%q) on a machine without it: %v, want clean scalar fallback", name, err)
		}
		if got := Active(); got != Scalar {
			t.Fatalf("Select(%q) fallback selected %q, want %q", name, got, Scalar)
		}
	}
}

func TestSelectRoundTrip(t *testing.T) {
	restoreSelection(t)
	for _, name := range Variants() {
		if err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		if got := Active(); got != name {
			t.Fatalf("after Select(%q), Active() = %q", name, got)
		}
	}
}

func TestInitFromEnv(t *testing.T) {
	restoreSelection(t)
	if err := initFromEnv("bogus"); err == nil {
		t.Fatal("initFromEnv(\"bogus\") succeeded, want error")
	}
	if err := initFromEnv(Scalar); err != nil {
		t.Fatalf("initFromEnv(scalar): %v", err)
	}
	if got := Active(); got != Scalar {
		t.Fatalf("after initFromEnv(scalar), Active() = %q", got)
	}
	if err := initFromEnv(""); err != nil {
		t.Fatalf("initFromEnv(\"\"): %v", err)
	}
	want := Scalar
	if len(available) > 0 {
		want = available[len(available)-1].name
	}
	if got := Active(); got != want {
		t.Fatalf("initFromEnv(\"\") selected %q, want best available %q", got, want)
	}
}

// TestActiveKernel names, under -v, the tier this process runs and whether
// its IFMA52 entries (the Horner, row and syndrome-fold kernels) are
// installed: the tier name avx512 alone does not say, so a CI log could not
// tell whether those kernels ran on its runner.
func TestActiveKernel(t *testing.T) {
	at := active.Load()
	t.Logf("kernel %s, IFMA %v (%s=%q, selectable %v)", at.name, at.ifma, EnvVar, os.Getenv(EnvVar), Variants())
	if at.ifma && at.name != AVX512 {
		t.Fatalf("tier %s has the IFMA entries installed; only avx512 may", at.name)
	}
}

func TestVariantsListsScalarFirst(t *testing.T) {
	vs := Variants()
	if len(vs) == 0 || vs[0] != Scalar {
		t.Fatalf("Variants() = %v, want scalar first", vs)
	}
}

// randCanonical returns a uniform canonical field element.
func randCanonical(r *rand.Rand) uint64 { return r.Uint64() % modulus }

// randPoints mixes raw uint64 points (the hash path feeds unreduced keys)
// with boundary values around the modulus.
func randPoints(r *rand.Rand, n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		switch r.Intn(8) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = modulus - 1
		case 2:
			xs[i] = modulus
		case 3:
			xs[i] = ^uint64(0)
		default:
			xs[i] = r.Uint64()
		}
	}
	return xs
}

// evalLengths are the batch lengths the Horner differentials sweep: around
// the 8-point block and the IFMA kernel's 32-point unroll, and past both.
var evalLengths = []int{0, 1, 3, 4, 5, 7, 8, 9, 16, 24, 31, 32, 33, 40, 63, 64, 65, 95, 96, 97, 100, 255, 256, 257, 300}

// randCoefs returns n canonical coefficients; maxed sets every one to p-1,
// whose limbs are (nearly) all ones: the largest lazy limb sums.
func randCoefs(r *rand.Rand, n int, maxed bool) []uint64 {
	coef := make([]uint64, n)
	for i := range coef {
		coef[i] = randCanonical(r)
		if maxed {
			coef[i] = modulus - 1
		}
	}
	return coef
}

func TestPolyEvalBatchDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7001))
	for _, vt := range vectorTables() {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12} {
			for ni, n := range evalLengths {
				coef := randCoefs(r, k, ni%4 == 0)
				xs := randPoints(r, n)
				want := make([]uint64, n)
				got := make([]uint64, n)
				scalarTable.polyEvalBatch(coef, xs, want)
				vt.polyEvalBatch(coef, xs, got)
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s polyEvalBatch k=%d n=%d: out[%d] = %#x, scalar %#x (x=%#x)",
							vt.name, k, n, i, got[i], want[i], xs[i])
					}
				}
			}
		}
	}
}

// heavyPoints are points whose powers x..x^7 all have 9-bit high limbs of 470
// or more (sums 3 441-3 503 of at most 3 577), found by a search over 2^28
// random points: with all-(p-1) coefficients they drive a k = 8 row's h sum
// to about 2^20.8, where a plain 2^43·h recombination overflows 64 bits.
var heavyPoints = []uint64{0x1fcaf63d15a54bdb, 0x1fd634f6780fc801, 0x1e8cbba703a014d9, 0x1fbc5490ab05837a}

// TestPolyEvalRowsDifferential pins every table's multi-row evaluation to
// the scalar per-row Horner reference: rows 1-9 and past one IFMA call's 16,
// k 1-9 (k = 9 is past the lazy kernel's limit), lengths on both sides of
// the 8- and 32-point blocks, raw points at and above p, heavyPoints and
// all-(p-1) coefficients; a sentinel past the last row catches overruns.
func TestPolyEvalRowsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7009))
	tables := append([]*table{&scalarTable}, vectorTables()...)
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 33} {
			for ni, n := range evalLengths {
				coef := randCoefs(r, rows*k, (ni+rows)%3 == 0)
				xs := randPoints(r, n)
				switch ni % 5 {
				case 0:
					for i := range xs {
						xs[i] = ^uint64(0) - uint64(i%3)*modulus
					}
				case 1:
					for i := range xs {
						xs[i] = heavyPoints[i%len(heavyPoints)]
					}
				}
				want := make([]uint64, rows*n)
				for j := range rows {
					scalarPolyEvalBatch(coef[j*k:(j+1)*k], xs, want[j*n:(j+1)*n])
				}
				for _, vt := range tables {
					got := make([]uint64, rows*n+1)
					got[rows*n] = 42
					vt.evalRows(coef, k, xs, got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s polyEvalRows k=%d rows=%d n=%d: row %d out[%d] = %#x, scalar %#x (x=%#x)",
								vt.name, k, rows, n, i/n, i%n, got[i], want[i], xs[i%n])
						}
					}
					if got[rows*n] != 42 {
						t.Fatalf("%s polyEvalRows k=%d rows=%d n=%d wrote past rows·len(xs)", vt.name, k, rows, n)
					}
				}
			}
		}
	}
}

func TestBucketSign2Differential(t *testing.T) {
	r := rand.New(rand.NewSource(7002))
	for _, vt := range vectorTables() {
		for _, m := range []uint64{1, 2, 3, 64, 4096, 123457, 1 << 40} {
			for _, n := range []int{0, 1, 4, 5, 37, 128} {
				h0, h1 := randCanonical(r), randCanonical(r)
				g0, g1 := randCanonical(r), randCanonical(r)
				xs := randPoints(r, n)
				wantB := make([]uint64, n)
				gotB := make([]uint64, n)
				wantS := make([]float64, n)
				gotS := make([]float64, n)
				scalarTable.bucketSign2(h0, h1, g0, g1, m, xs, wantB, wantS)
				vt.bucketSign2(h0, h1, g0, g1, m, xs, gotB, gotS)
				for i := range wantB {
					if wantB[i] != gotB[i] || wantS[i] != gotS[i] {
						t.Fatalf("%s bucketSign2 m=%d n=%d: (%d,%v), scalar (%d,%v) at i=%d x=%#x",
							vt.name, m, n, gotB[i], gotS[i], wantB[i], wantS[i], i, xs[i])
					}
				}
			}
		}
	}
}

// cauchyInputs returns the Cauchy kernel's test inputs: the edges of its
// domain and of math.tan's branches, then random values of the form
// hash.toUnit produces, (v+1)/2^61 for a field element v.
func cauchyInputs(random int) []float64 {
	u := []float64{0, 0x1p-61, 0.5, 1, 0.5 - 1e-8, 0.5 + 1e-8, math.Nextafter(1, 0)}
	for _, c := range []float64{0.25, 0.75} { // x = ∓π/4: where j turns even
		lo, hi := c, c
		for k := 0; k < 64; k++ {
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, 1)
			u = append(u, lo, hi)
		}
		u = append(u, c)
	}
	r := rand.New(rand.NewSource(7008))
	for i := 0; i < random; i++ {
		u = append(u, (float64(r.Uint64()%modulus)+1)*(1/float64(modulus)))
	}
	return u
}

// TestCauchyDifferential pins every variant's Cauchy transform to its
// defining expression, math.Tan(math.Pi*(u-0.5)), bit for bit: over 2^24
// toUnit-shaped inputs plus the branch edges, out of place and (on a prefix)
// in place, and at lengths around the eight-lane block.
func TestCauchyDifferential(t *testing.T) {
	random := 1 << 24
	if testing.Short() {
		random = 1 << 18
	}
	u := cauchyInputs(random)
	want := make([]float64, len(u))
	for i, v := range u {
		want[i] = math.Tan(math.Pi * (v - 0.5))
	}
	check := func(name, what string, got, want, u []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s cauchy %s: out[%d] = %v (%#x), math.Tan %v (%#x) at u = %v",
					name, what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), u[i])
			}
		}
	}
	got := make([]float64, len(u))
	for _, vt := range append([]*table{&scalarTable}, vectorTables()...) {
		clear(got)
		vt.cauchy(u, got)
		check(vt.name, "out of place", got, want, u)

		inPlace := got[:1<<16]
		copy(inPlace, u)
		vt.cauchy(inPlace, inPlace)
		check(vt.name, "in place", inPlace, want[:len(inPlace)], u)

		for _, n := range []int{0, 1, 7, 8, 9, 2051} {
			for _, off := range []int{0, 3} {
				out := make([]float64, n+1)
				out[n] = -7
				vt.cauchy(u[off:off+n], out)
				check(vt.name, "short", out[:n], want[off:off+n], u[off:off+n])
				if out[n] != -7 {
					t.Fatalf("%s cauchy wrote past len(u) = %d", vt.name, n)
				}
			}
		}
	}
}

// TestSyndromeAdd4Differential pins the one-multiply lazy-sum fold against the
// defining power sums, computed the slow way: a separate power chain per
// update, one canonical add per term.
func TestSyndromeAdd4Differential(t *testing.T) {
	r := rand.New(rand.NewSource(7005))
	for trial := 0; trial < 200; trial++ {
		for _, sn := range []int{0, 1, 2, 3, 4, 8, 17, 20} {
			var d, a [4]uint64
			for i := range d {
				d[i] = randCanonical(r)
				a[i] = randCanonical(r)
			}
			if trial == 0 {
				// Every term at its maximum: the lazy five-term sum's worst case.
				d = [4]uint64{modulus - 1, modulus - 1, modulus - 1, modulus - 1}
				a = [4]uint64{1, 1, 1, 1}
			}
			want := make([]uint64, sn)
			for i := range want {
				want[i] = randCanonical(r)
				if trial == 0 {
					want[i] = modulus - 1
				}
			}
			got := append([]uint64(nil), want...)
			pw := [4]uint64{1, 1, 1, 1}
			for j := range want {
				for i := range d {
					want[j] = modAdd(want[j], modMul(d[i], pw[i]))
					pw[i] = modMul(pw[i], a[i])
				}
			}
			SyndromeAdd4(got, d, a)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("SyndromeAdd4 |synd|=%d: synd[%d] = %#x, power sums %#x", sn, i, got[i], want[i])
				}
			}
		}
	}
}

// syndromeFoldLengths are the syndrome-vector lengths the fold differential
// sweeps: 0-24 (the L0 sampler's 20 among them, and the IFMA kernel's
// limit of 24), then past it, where the IFMA tier takes the scalar groups.
var syndromeFoldLengths = append(func() []int {
	ls := make([]int, 25)
	for i := range ls {
		ls[i] = i
	}
	return ls
}(), 25, 33, 48, 49, 70)

// foldInputs returns m canonical deltas and points for one case: mixed draws
// {0, 1, p-1, random} and {1, p-1, high limb >= 2^8, random}, or with maxed
// every delta and point p-1.
func foldInputs(r *rand.Rand, m int, maxed bool) (d, a []uint64) {
	d, a = make([]uint64, m), make([]uint64, m)
	for t := range d {
		d[t] = [4]uint64{0, 1, modulus - 1, randCanonical(r)}[r.Intn(4)]
		a[t] = [4]uint64{1, modulus - 1, randCanonical(r) | 1<<60, randCanonical(r)}[r.Intn(4)]
		if maxed {
			d[t], a[t] = modulus-1, modulus-1
		}
	}
	return d, a
}

// TestSyndromeFoldDifferential pins every table's syndrome fold — scalar,
// each available tier and testAltTables — to the defining power sums computed
// the slow way (a power chain per update, one canonical add per term):
// syndrome lengths 0-24 and past the IFMA kernel's 24, update counts 0-300
// on both sides of 4, 8 and 32, deltas and points
// at 0, 1 and p-1, points with large high limbs, and all-(p-1) cells. A
// sentinel past synd catches overruns; the inputs must come back unchanged.
func TestSyndromeFoldDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7011))
	tables := append([]*table{&scalarTable}, vectorTables()...)
	counts := append([]int{2, 6, 12, 20, 28, 36, 44}, evalLengths...)
	for _, sn := range syndromeFoldLengths {
		for ci, m := range counts {
			maxed := (ci+sn)%5 == 0
			d, a := foldInputs(r, m, maxed)
			start := make([]uint64, sn)
			for j := range start {
				start[j] = randCanonical(r)
				if maxed || ci%3 == 0 {
					start[j] = modulus - 1
				}
			}
			want := append([]uint64(nil), start...)
			for i := range d {
				pw := uint64(1)
				for j := range want {
					want[j] = modAdd(want[j], modMul(d[i], pw))
					pw = modMul(pw, a[i])
				}
			}
			d0, a0 := append([]uint64(nil), d...), append([]uint64(nil), a...)
			for _, vt := range tables {
				got := append(append([]uint64(nil), start...), 42)
				vt.syndromeFold(got[:sn], d, a)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s (ifma %v) syndromeFold |synd|=%d m=%d maxed=%v: synd[%d] = %#x, power sums %#x",
							vt.name, vt.ifma, sn, m, maxed, j, got[j], want[j])
					}
				}
				if got[sn] != 42 {
					t.Fatalf("%s syndromeFold |synd|=%d m=%d wrote past synd", vt.name, sn, m)
				}
				for i := range d {
					if d[i] != d0[i] || a[i] != a0[i] {
						t.Fatalf("%s syndromeFold |synd|=%d m=%d changed its input at %d", vt.name, sn, m, i)
					}
				}
			}
		}
	}
}

// TestDispatchEntryPoints drives every exported wrapper under each selectable
// variant, checking the dispatch plumbing end to end.
func TestDispatchEntryPoints(t *testing.T) {
	restoreSelection(t)
	r := rand.New(rand.NewSource(7007))
	xs := randPoints(r, 21)
	coef := []uint64{randCanonical(r), randCanonical(r), randCanonical(r)}
	var results [][]uint64
	for _, name := range Variants() {
		if err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		out := make([]uint64, len(xs))
		PolyEvalBatch(coef, xs, out)
		rowsOut := make([]uint64, 3*len(xs))
		PolyEvalRows([]uint64{coef[0], coef[1], coef[2], coef[2], coef[1], coef[0], coef[1], coef[2], coef[0]}, 3, xs, rowsOut)
		buckets := make([]uint64, len(xs))
		signs := make([]float64, len(xs))
		BucketSign2(coef[0], coef[1], coef[2], coef[0], 97, xs, buckets, signs)
		var du, au [4]uint64
		for i := range du {
			du[i], au[i] = randCanonical(rand.New(rand.NewSource(int64(i)))), uint64(i+2)
		}
		synd := make([]uint64, 6)
		SyndromeAdd4(synd, du, au)
		fd, fa := foldInputs(rand.New(rand.NewSource(7012)), 45, false)
		fold := make([]uint64, 20)
		SyndromeFold(fold, fd, fa)
		tan := []float64{0, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 1, 0.3}
		Cauchy(tan, tan)
		flat := append(append(append(append([]uint64(nil), out...), rowsOut...), buckets...), synd...)
		flat = append(flat, fold...)
		for _, v := range tan {
			flat = append(flat, math.Float64bits(v))
		}
		results = append(results, flat)
	}
	for i := 1; i < len(results); i++ {
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("variant %q disagrees with %q at flat index %d",
					Variants()[i], Variants()[0], j)
			}
		}
	}
}
