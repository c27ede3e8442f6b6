// Package kernel is the runtime-dispatched vector-kernel layer under the
// ingest/query hot paths. The primitives that dominate every sketch's
// cycle budget — k-wise hash evaluation (internal/hash), the syndrome fold
// of sparse recovery (internal/sparse), the affine maps of the PRG's
// window tables (internal/prng) and the counter scatter under the count-sketch
// fold — call through a per-primitive function table selected once at
// init: the pure-Go scalar reference always exists, and SIMD variants
// (AVX2 and AVX-512 on amd64, NEON on arm64) replace individual entries
// when the CPU supports them.
//
// All kernels operate on raw uint64 values carrying elements of GF(2^61-1)
// in canonical form [0, Modulus) — the same representation as
// internal/field.Elem (field.Words is the zero-copy view callers pass in).
// kernel imports no package of this module, so the few lines of Mersenne
// arithmetic are restated in scalar.go; the differential tests in
// kernel_test.go and the per-package variant sweeps pin every variant
// bit-identical to the scalar reference.
//
// Cauchy is the one floating-point primitive: the p = 1 stable variate
// tan(π(u-½)) of the norm sketches (internal/norm), for u in [0, 1] — the
// range of the hash layer's unit values. Its contract is bit identity with
// math.Tan(math.Pi*(u-0.5)), so the AVX-512 variant replays math.tan's own
// operation sequence lane by lane, divides included, and fuses nothing: the
// amd64 compiler never contracts x*y+z into an FMA, so math.tan itself is
// unfused there, and one fused step would change low bits of the sketch
// state. arm64 keeps the scalar entry: Go fuses x*y+z on arm64, so its
// math.tan differs from amd64's in low bits, and a lane form would have to
// reproduce that compiler's fusion choices instead of IEEE's.
//
// Selection order is AVX-512 > AVX2 > NEON > scalar, overridable for
// testing with the environment variable REPRO_KERNEL=scalar|avx2|avx512|neon:
// a known but unavailable variant falls back cleanly to scalar (so one CI
// matrix axis can force REPRO_KERNEL=scalar everywhere without per-arch
// conditionals), while an unknown value fails loudly at process start —
// silently ignoring a typo would un-force the very path the override was
// meant to test.
package kernel

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
)

// Variant names accepted by Select and the REPRO_KERNEL environment variable.
const (
	Scalar = "scalar"
	AVX2   = "avx2"
	AVX512 = "avx512"
	NEON   = "neon"
)

// EnvVar is the environment variable consulted once at package init.
const EnvVar = "REPRO_KERNEL"

// table is the per-primitive function-pointer set of one variant. Every
// entry but polyEvalRows is always non-nil; variants that vectorize only some
// primitives inherit another variant's implementation for the rest.
type table struct {
	name string

	// ifma marks the AVX-512 table with the IFMA52 entries installed, and
	// routes the syndrome fold: with ifma set, a batch of ifmaFoldMin or
	// more updates into at most 24 syndromes goes to the IFMA kernel
	// (avx512SyndromeFoldIFMA, 32 updates' product chains in flight per
	// syndrome step); every other batch, and every other table, runs the
	// scalar SyndromeAdd4 groups and the two-chain tail. It is a flag, not a function entry, so that the
	// call stays direct and the caller's stack blocks of deltas and points
	// do not escape to the heap.
	ifma bool

	// polyEvalBatch writes the evaluation of the polynomial with ascending
	// canonical coefficients coef at each point of xs into out[:len(xs)].
	// Points are arbitrary uint64s, reduced to canonical form first (a
	// no-op for already-canonical field elements). Horner's rule makes each
	// point one chain of dependent multiplies, so the vector variants keep
	// several blocks of points in flight (the IFMA kernel four, 32 points).
	polyEvalBatch func(coef, xs, out []uint64)

	// polyEvalRows evaluates len(coef)/k polynomials of k coefficients each,
	// stored row after row, at every point of xs: row j's value at xs[t]
	// goes to out[j*len(xs)+t]. Only the IFMA tier has one (a shared power
	// table per block of points and one reduction per row, for k <= 8);
	// nil evaluates the rows one at a time through polyEvalBatch.
	polyEvalRows func(coef []uint64, k int, xs, out []uint64)

	// bucketSign2 is the fused count-sketch row kernel for pairwise (k=2)
	// families: buckets[t] = Lemire(h1·x+h0, m), signs[t] = ±1.0 from the
	// low bit of g1·x+g0.
	bucketSign2 func(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64)

	// scatterAddF64 folds cells[idx[t]] += del[t] for t ascending — the
	// count-sketch counter scatter. Per-cell accumulation order is batch
	// order, so float64 results are bit-identical across variants.
	scatterAddF64 func(cells []float64, idx []uint64, del []float64)

	// scatterAddI64 is the integer twin, kept for integer counter cells.
	scatterAddI64 func(cells []int64, idx []uint64, del []int64)

	// cauchy writes out[t] = math.Tan(math.Pi*(u[t]-0.5)) for u[t] in [0, 1],
	// bit for bit: the p = 1 stable variate of the norm sketches.
	cauchy func(u, out []float64)
}

var (
	selectMu sync.Mutex
	active   atomic.Pointer[table]

	// available lists the vector tables compiled in and supported by this
	// CPU, in ascending preference order (the last entry is the best);
	// wired by the per-arch init in cpu_*.go. Empty means scalar only.
	available []*table

	// testAltTables lists extra tables reachable only from the differential
	// tests: flavors detection skipped in favor of a better one but that
	// this CPU can still execute (the VPMULUDQ AVX-512 modmul on an IFMA
	// machine). Never selectable; swept by kernel_test.go.
	testAltTables []*table
)

func init() {
	detect() // per-arch: may append to available
	if err := initFromEnv(os.Getenv(EnvVar)); err != nil {
		panic(err)
	}
}

// initFromEnv applies one REPRO_KERNEL value: empty selects the best
// available variant, a known name forces it (falling back to scalar when the
// CPU lacks it), and an unknown name is an error. Split from init so tests
// can exercise the error path without a subprocess.
func initFromEnv(v string) error {
	if v == "" {
		if len(available) > 0 {
			active.Store(available[len(available)-1])
		} else {
			active.Store(&scalarTable)
		}
		return nil
	}
	if err := Select(v); err != nil {
		return fmt.Errorf("kernel: invalid %s=%q: %w", EnvVar, v, err)
	}
	return nil
}

// Active returns the name of the currently selected variant.
func Active() string { return active.Load().name }

// Variants returns the names selectable on this machine: always "scalar",
// plus every vector variant compiled in and supported by the CPU, best last
// (on an AVX-512 machine that is scalar, avx2, avx512).
func Variants() []string {
	vs := []string{Scalar}
	for _, t := range available {
		vs = append(vs, t.name)
	}
	return vs
}

// Select switches the dispatch table. "scalar" always succeeds; a known
// vector variant that is unavailable here (wrong architecture or missing CPU
// feature) falls back cleanly to scalar and reports no error, so forced
// configurations stay portable; an unknown name is an error and leaves the
// selection unchanged. Safe for concurrent use with kernel calls (the table
// pointer is swapped atomically), though tests that force variants should
// not run in parallel with each other.
func Select(name string) error {
	selectMu.Lock()
	defer selectMu.Unlock()
	switch name {
	case Scalar:
		active.Store(&scalarTable)
	case AVX2, AVX512, NEON:
		active.Store(&scalarTable)
		for _, t := range available {
			if t.name == name {
				active.Store(t)
				break
			}
		}
	default:
		return fmt.Errorf("unknown kernel variant %q (want %s, %s, %s or %s)",
			name, Scalar, AVX2, AVX512, NEON)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dispatched entry points (one atomic load + indirect call per batch).
// ---------------------------------------------------------------------------

// PolyEvalBatch evaluates the polynomial Σ coef[i]·x^i at each (raw uint64)
// point of xs into out[:len(xs)], Horner order, over GF(2^61-1). A nil/empty
// coef writes zeros.
func PolyEvalBatch(coef, xs, out []uint64) { active.Load().polyEvalBatch(coef, xs, out) }

// PolyEvalRows evaluates the len(coef)/k polynomials of k ascending canonical
// coefficients each, stored row after row (hash.FlatFamily's layout), at
// every (raw uint64) point of xs: row j's value at xs[t] goes to
// out[j*len(xs)+t], so out holds len(coef)/k·len(xs) values. k must be >= 1.
func PolyEvalRows(coef []uint64, k int, xs, out []uint64) {
	active.Load().evalRows(coef, k, xs, out)
}

func (t *table) evalRows(coef []uint64, k int, xs, out []uint64) {
	n := len(xs)
	if n == 0 {
		return
	}
	out = out[:len(coef)/k*n]
	if t.polyEvalRows != nil {
		t.polyEvalRows(coef, k, xs, out)
		return
	}
	for j := range len(coef) / k {
		t.polyEvalBatch(coef[j*k:(j+1)*k], xs, out[j*n:(j+1)*n])
	}
}

// BucketSign2 is the fused pairwise count-sketch row kernel; see table.
// h0,h1,g0,g1 must be canonical field elements and m ≥ 1.
func BucketSign2(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64) {
	active.Load().bucketSign2(h0, h1, g0, g1, m, xs, buckets, signs)
}

// SyndromeFold folds len(d) updates (canonical deltas d, canonical evaluation
// points a, len(a) >= len(d)) into the power-sum syndromes:
// synd[j] += Σ_t d[t]·a[t]^j for every j, cells canonical in and out. Field
// arithmetic is exact, so every tier, grouping and update order leaves the
// same cells. Nothing allocates, and d and a may live on the caller's stack.
func SyndromeFold(synd, d, a []uint64) { active.Load().syndromeFold(synd, d, a) }

// ifmaFoldMin is the batch length from which the IFMA syndrome fold beats
// the scalar groups. Measured at 20 syndromes on an AVX-512 IFMA Xeon: one
// 8-lane chain is latency-bound at about 300-330 ns a call whatever its
// lane count, against 160-260 ns for 4 updates on the scalar groups, about
// 300 for 5, 280-410 for 6 and 340-470 for 8.
const ifmaFoldMin = 6

func (t *table) syndromeFold(synd, d, a []uint64) {
	if t.ifma && len(d) >= ifmaFoldMin && len(synd) > 0 {
		avx512SyndromeFoldIFMA(synd, d, a)
		return
	}
	scalarSyndromeFold(synd, d, a)
}

// Cauchy writes out[t] = math.Tan(math.Pi*(u[t]-0.5)) into out[:len(u)], bit
// for bit, for every u[t] in [0, 1] (outside it the result is unspecified).
// out may be u itself. The slices reach a vector variant through the
// function table, so the compiler lets them escape: pass buffers the caller
// already owns on the heap, never a stack array.
func Cauchy(u, out []float64) { active.Load().cauchy(u, out) }

// ---------------------------------------------------------------------------
// Not dispatched: one implementation on every CPU.
// ---------------------------------------------------------------------------

// SyndromeAdd4 folds four updates (canonical deltas d, evaluation points a)
// into the power-sum syndromes: synd[j] += Σ_i d[i]·a[i]^j for all j, cells
// canonical in and out. Each update is one chain q ← q·a, 2s dependent
// multiplies long, so a four-lane vector form is bound by the ~25-cycle
// latency of its modmul (the AVX2 kernel this replaced read 217 ns per group
// of 16 syndromes beside 100 ns here), while four scalar chains keep the
// integer multiplier busy. The vector form, with four groups of eight in
// flight, is SyndromeFold's IFMA kernel.
func SyndromeAdd4(synd []uint64, d, a [4]uint64) {
	// One chain per update carrying the product itself, q_i = d_i·a_i^j —
	// one multiply per syndrome per update where pw ← pw·a, then d·pw pays
	// two. The chains run half-reduced (mulFold: below 2^61+4, congruent but
	// not canonical), and a step's four products and the canonical cell sum
	// lazily, 2^61 + 4·(2^61+4) < 2^64, into the one canonical reduction.
	n := len(synd)
	if n == 0 {
		return
	}
	q0, q1, q2, q3 := d[0], d[1], d[2], d[3]
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for j := 0; j < n-1; j++ {
		synd[j] = reduce(synd[j] + q0 + q1 + q2 + q3)
		q0 = mulFold(q0, a0)
		q1 = mulFold(q1, a1)
		q2 = mulFold(q2, a2)
		q3 = mulFold(q3, a3)
	}
	synd[n-1] = reduce(synd[n-1] + q0 + q1 + q2 + q3)
}

// mulFold returns a value below 2^61+4 congruent to q·a mod 2^61-1, for
// q < 2^62 and canonical a: modMul without its final conditional subtract.
// The product is below 2^123, so hi<<3 < 2^62 and the three-term sum stays
// below 2^63; one fold leaves at most modulus+3. Its own output is a valid q.
func mulFold(q, a uint64) uint64 {
	hi, lo := bits.Mul64(q, a)
	part := (lo & modulus) + (lo >> 61) + hi<<3
	return (part & modulus) + (part >> 61)
}

// syndromeAdd1 is scalarSyndromeFold's tail, one update: two product chains,
// q = d·a^j for the even syndromes and for the odd ones, each advancing by a²,
// so each syndrome costs one multiply and the two chains overlap in the
// multiplier pipeline. It is cheaper than a zero-padded group of four. An
// odd last syndrome takes the even chain.
func syndromeAdd1(synd []uint64, d, a uint64) {
	a2 := modMul(a, a)
	qe, qo := d, modMul(d, a)
	j := 0
	for ; j+1 < len(synd); j += 2 {
		synd[j] = modAdd(synd[j], qe)
		synd[j+1] = modAdd(synd[j+1], qo)
		if j+2 == len(synd) {
			return
		}
		qe = modMul(qe, a2)
		qo = modMul(qo, a2)
	}
	if j < len(synd) {
		synd[j] = modAdd(synd[j], qe)
	}
}
