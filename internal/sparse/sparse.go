// Package sparse implements the exact s-sparse recovery of Lemma 5: a random
// linear function L: R^n -> R^k with k = O(s), generated from O(k log n)
// random bits, together with a recovery procedure that outputs x' = x with
// probability 1 whenever x is s-sparse, and otherwise outputs DENSE with high
// probability.
//
// Construction (syndrome decoding, the classical realization of the lemma).
// Embed updates into GF(2^61-1) and maintain 2s power-sum syndromes
//
//	S_j = sum_i x_i * a_i^j,  a_i = i+1,  j = 0..2s-1,
//
// plus one verification syndrome at a uniformly random point: F = sum_i x_i
// * rho^i. If x is e-sparse with e <= s, the syndrome sequence obeys the
// linear recurrence whose connection polynomial is the locator
// prod (1 - a_i x); Berlekamp-Massey finds it from 2e <= 2s syndromes
// deterministically, the roots of the reversed locator prod (x - a_i) are the
// support points, and a transposed Vandermonde solve recovers the values —
// recovery is exact with probability 1, as Lemma 5 demands. If x is not
// s-sparse, any spuriously decoded sparse candidate x” differs from x, so
// the random evaluation F catches it except with probability <= n/2^61 per
// query (a "low probability" event in the paper's sense); we then report
// DENSE.
//
// Update path. Each syndrome chain carries the product q = d·a^j itself and
// advances by q ← q·a — one field multiply per syndrome per update.
// ProcessBatch writes a block's canonical deltas and points to the stack and
// folds them with one kernel.SyndromeFold call. On the AVX-512 IFMA tier a
// vector carries eight updates' chains and four vectors (32 updates) are in
// flight per syndrome step; each syndrome accumulates lane-wise and is
// summed across its lanes once per call. Every other tier runs four scalar
// chains abreast (kernel.SyndromeAdd4), whose step sums into the cell with a
// single reduction, and a two-chain tail. The fingerprint's rho^i comes from
// radix-16 windows of rho (field.PowCache) that the first fold builds; New
// tabulates nothing.
//
// Query engine. The decode finds the locator's roots instead of scanning
// [n] for them: field.SplitTester tells a locator that is not a product of
// distinct linear factors (a dense sketch's, all but always) and splits one
// that is into its roots by equal-degree splitting, in time independent of
// n; a root outside [1, n] means DENSE. The value solve uses the O(e²)
// transposed-Vandermonde algorithm (field.VandermondeSolver) in place of
// generic Gaussian elimination, and syndrome verification advances one
// shared power chain per support point rather than re-exponentiating. All
// of it is exact field arithmetic on the unique candidate, so decodes are
// bit-identical to a full Horner scan over [n] with a Gaussian solve.
// Results are memoized behind a dirty bit, so repeated queries on an
// unchanged sketch are O(1) and allocation-free.
//
// Space: 2s+1 field elements plus the O(log n)-bit seed — the O(s log n) bits
// Lemma 5 promises.
package sparse

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/kernel"
	"repro/internal/stream"
)

// Recoverer maintains the linear measurements of one vector x in Z^n.
//
// The query side is memoized: Recover caches its decode and a dirty bit —
// set by Process/ProcessBatch/Merge/RestoreState, cleared on decode —
// short-circuits repeated queries on an unchanged sketch. All decode
// scratch (Berlekamp-Massey's polynomials, the reversed locator, the root
// finder's and the Vandermonde solver's state, the support and value
// buffers) lives on the Recoverer and is reused, so steady-state Recover
// calls allocate nothing, dirty or not.
type Recoverer struct {
	n      int
	s      int
	synd   []field.Elem    // 2s power-sum syndromes
	rho    field.Elem      // random verification point
	rhoPow *field.PowCache // radix-16 windows of rho, built by the first rho^i asked for
	fp     field.Elem      // F = sum_i x_i rho^i

	// Query-side memoization and decode scratch.
	dirty    bool          // measurements changed since the last decode
	decoded  map[int]int64 // cached decode result (reused across decodes)
	decodeOK bool          // cached DENSE/sparse verdict
	bm       []field.Elem  // Berlekamp-Massey's two working polynomials
	rev      field.Poly    // reversed locator buffer
	split    field.SplitTester
	pts      []field.Elem // the locator's roots: support points a_t = pos_t + 1
	vals     []field.Elem // recovered values
	pw       []field.Elem // shared per-position power chain (verification)
	solver   field.VandermondeSolver
}

// New creates a recoverer for vectors of dimension n with sparsity budget s.
// Randomness (the verification point) is drawn from r.
func New(n, s int, r *rand.Rand) *Recoverer {
	if s < 1 {
		s = 1
	}
	rc := &Recoverer{
		n:     n,
		s:     s,
		synd:  make([]field.Elem, 2*s),
		dirty: true,
	}
	rc.rho = field.New(r.Uint64())
	for rc.rho == 0 {
		rc.rho = field.New(r.Uint64())
	}
	rc.rhoPow = field.NewPowCache(rc.rho)
	return rc
}

// S returns the sparsity budget.
func (rc *Recoverer) S() int { return rc.s }

// N returns the vector dimension.
func (rc *Recoverer) N() int { return rc.n }

// Process implements stream.Sink: x_i += delta, as a batch of one.
func (rc *Recoverer) Process(u stream.Update) { rc.ProcessBatch([]stream.Update{u}) }

// foldBlock is how many updates ProcessBatch hands the syndrome kernel per
// call. Their canonical deltas and points are two 512-byte stack blocks, so a
// recoverer owns no fold scratch (a serving process keeps thousands live)
// and the goroutines that fold keep small stacks. A batch of at most
// shortFold updates — a lone Process, the few members of a subsampled level
// — takes 64-byte blocks instead, because Go zeroes a stack array on every
// call. Measured on a 2-vCPU AVX-512 IFMA Xeon, five alternated runs a side:
// one Process at a time (BenchmarkProcessScalarS10) reads 605-672 µs per
// 4 096 updates with the short blocks and 736-774 µs with 64-update blocks
// only; the sampler's 2 048-update frames do not tell the two apart
// (BenchmarkL0SamplerProcessBatch 388-497 against 412-472 µs).
const (
	foldBlock = 64
	shortFold = 8
)

// ProcessBatch implements stream.BatchSink. Per block of foldBlock updates it
// writes the canonical deltas d and points a = i+1 to the stack, folds them
// into the 2s syndromes with one kernel.SyndromeFold call (32 updates' power
// chains in flight on the IFMA multiplier, four scalar chains elsewhere)
// and adds each d·rho^i to the fingerprint here, rho^i from the PowCache.
// Field arithmetic is exact, so every split of a stream into batches leaves
// the same state bit for bit (pinned by
// TestPropertyTransposedBatchMatchesScalar). Nothing allocates.
func (rc *Recoverer) ProcessBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	rc.dirty = true
	if len(batch) <= shortFold {
		var d, a [shortFold]uint64
		rc.foldBlock(batch, d[:], a[:])
		return
	}
	var d, a [foldBlock]uint64
	for len(batch) > 0 {
		n := min(len(batch), foldBlock)
		rc.foldBlock(batch[:n], d[:], a[:])
		batch = batch[n:]
	}
}

// foldBlock folds blk (len(blk) <= len(d), len(a)) through the stack blocks
// d and a.
func (rc *Recoverer) foldBlock(blk []stream.Update, d, a []uint64) {
	d, a = d[:len(blk)], a[:len(blk)]
	fp, pc := rc.fp, rc.rhoPow
	for t, u := range blk {
		dt := field.FromInt64(u.Delta)
		d[t] = uint64(dt)
		a[t] = uint64(field.New(uint64(u.Index) + 1))
		fp = field.Add(fp, field.Mul(dt, pc.Pow(uint64(u.Index))))
	}
	rc.fp = fp
	kernel.SyndromeFold(field.Words(rc.synd), d, a)
}

// Compatible reports whether other is a same-seed replica: identical
// parameters and an identical verification point (the fingerprint of shared
// construction randomness).
func (rc *Recoverer) Compatible(other *Recoverer) bool {
	return other != nil && rc.n == other.n && len(rc.synd) == len(other.synd) && rc.rho == other.rho
}

// Merge adds the measurements of another recoverer built with identical
// parameters and randomness (sketch linearity). Mismatched shapes or
// differing verification points — the signature of replicas that do not
// share a seed — are reported as an error, leaving the receiver untouched.
func (rc *Recoverer) Merge(other *Recoverer) error {
	if other == nil {
		return fmt.Errorf("sparse: %w", codec.ErrNilMerge)
	}
	if rc.n != other.n || len(rc.synd) != len(other.synd) {
		return fmt.Errorf("sparse: merging recoverers of different shapes: %w", codec.ErrConfigMismatch)
	}
	if rc.rho != other.rho {
		return fmt.Errorf("sparse: %w", codec.ErrSeedMismatch)
	}
	rc.dirty = true
	for j := range rc.synd {
		rc.synd[j] = field.Add(rc.synd[j], other.synd[j])
	}
	rc.fp = field.Add(rc.fp, other.fp)
	return nil
}

// IsZero reports whether all measurements are zero — true with certainty for
// the zero vector, false positives only with low probability (a nonzero x
// must zero out 2s+1 independent evaluations).
func (rc *Recoverer) IsZero() bool {
	if rc.fp != 0 {
		return false
	}
	for _, v := range rc.synd {
		if v != 0 {
			return false
		}
	}
	return true
}

// Recover attempts exact recovery. It returns (support map i -> x_i, true)
// when the measurements decode to an s-sparse vector that passes
// verification, and (nil, false) — DENSE — otherwise. For any truly s-sparse
// x the first return is exactly x with probability 1 (Lemma 5).
//
// The decode is memoized: repeated calls on an unchanged sketch return the
// cached result without re-decoding (and without allocating). The returned
// map is owned by the Recoverer and valid until the next mutating call —
// callers must not modify it and should copy what they need to keep.
func (rc *Recoverer) Recover() (map[int]int64, bool) {
	if rc.dirty {
		rc.decodeOK = rc.decode()
		rc.dirty = false
	}
	if !rc.decodeOK {
		return nil, false
	}
	return rc.decoded, true
}

// decode runs one full recovery into rc.decoded. The pipeline is the
// classical syndrome decoder of Lemma 5:
//
//  1. Berlekamp-Massey finds the locator polynomial from the 2s syndromes
//     (locator).
//  2. The support points a_t = pos_t + 1 are the roots of the reversed
//     locator, and field.SplitTester finds them: it first tests in 61
//     modular squarings whether the locator is a product of e = deg(loc)
//     distinct linear factors — a dense vector's locator is a random
//     degree-s polynomial and all but never is, so DENSE costs no search —
//     and if so splits it into its roots. A root outside [1, n] is no
//     position, so the decode is DENSE, as it is when the locator does not
//     split. Neither step depends on n.
//  3. The values come from the transposed Vandermonde solve
//     Σ_t v_t a_t^j = S_j (j < e) in O(e²) via field.VandermondeSolver, and
//     verification replays all 2s syndromes through one shared per-position
//     power chain (pw_t ← pw_t·a_t per syndrome step — two Muls per entry
//     instead of a fresh field.Pow ladder), then checks the rho fingerprint
//     (solveAndVerify).
//
// Every step is exact field arithmetic producing the unique candidate, and a
// split locator's root set is unique, so decodes are bit-identical to a full
// Horner scan of [n] followed by a Gaussian value solve.
func (rc *Recoverer) decode() bool {
	if rc.decoded == nil {
		rc.decoded = make(map[int]int64, rc.s)
	} else {
		clear(rc.decoded)
	}
	if rc.IsZero() {
		return true
	}
	rev := rc.locator()
	if rev == nil {
		return false
	}
	pts, ok := rc.split.Roots(rev, rc.pts)
	rc.pts = pts
	if !ok {
		return false
	}
	for _, a := range pts {
		if uint64(a)-1 >= uint64(rc.n) { // position a-1 outside [0, n)
			return false
		}
	}
	return rc.solveAndVerify()
}

// locator returns the reversed locator polynomial of the current syndromes
// in rc.rev — monic, nonzero constant term, degree e in [1, s] — or nil when
// Berlekamp-Massey's locator has a degree no s-sparse vector produces.
func (rc *Recoverer) locator() field.Poly {
	loc := field.BerlekampMasseyBuf(rc.synd, &rc.bm)
	e := loc.Degree()
	if e < 1 || e > rc.s {
		return nil
	}
	if cap(rc.rev) < e+1 {
		rc.rev = make(field.Poly, e+1)
	}
	rev := rc.rev[:e+1]
	for i := 0; i <= e; i++ {
		rev[i] = loc[e-i]
	}
	return rev
}

// solveAndVerify solves for the values at the support points rc.pts, checks
// the candidate against every measurement and, if it stands, stores it in
// rc.decoded.
func (rc *Recoverer) solveAndVerify() bool {
	pts := rc.pts
	e := len(pts)
	// Structured transposed-Vandermonde value solve on S_0..S_{e-1}.
	vals := growElems(&rc.vals, e)
	if !rc.solver.Solve(pts, rc.synd[:e], vals) {
		return false
	}
	// Verify against all 2s syndromes through the shared power chain, then
	// the random fingerprint.
	pw := growElems(&rc.pw, e)
	for t := range pw {
		pw[t] = 1
	}
	for j := range rc.synd {
		var sj field.Elem
		for t := range pts {
			sj = field.Add(sj, field.Mul(vals[t], pw[t]))
			pw[t] = field.Mul(pw[t], pts[t])
		}
		if sj != rc.synd[j] {
			return false
		}
	}
	var f field.Elem
	for t, a := range pts {
		f = field.Add(f, field.Mul(vals[t], rc.rhoPow.Pow(uint64(a)-1)))
	}
	if f != rc.fp {
		return false
	}
	for t, a := range pts {
		v := vals[t].ToInt64()
		if v == 0 {
			// A zero value contradicts membership in the support; the
			// decoded candidate is inconsistent.
			return false
		}
		rc.decoded[int(a)-1] = v
	}
	return true
}

func growElems(buf *[]field.Elem, n int) []field.Elem {
	if cap(*buf) < n {
		*buf = make([]field.Elem, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// AppendState writes the linear measurements (syndromes then fingerprint)
// into a codec encoder: the public wire format, the engine checkpoints and
// the message of the §4 public-coin protocols.
func (rc *Recoverer) AppendState(e *codec.Encoder) {
	for _, v := range rc.synd {
		e.U64(uint64(v))
	}
	e.U64(uint64(rc.fp))
}

// RestoreState replaces the linear measurements from a codec decoder,
// invalidating the memoized decode on every path (the decoder's sticky
// error surfaces at the caller's Finish check). The receiver must have been
// constructed with the same parameters and randomness; restoring into a fresh
// instance and continuing to Add realizes the linear-sketch handoff of the §4
// protocols. Cells are reduced on the way in: every fold assumes canonical
// cells (the lazy sums of kernel.SyndromeFold have no headroom for a word
// near 2^64), and the words come from a peer.
func (rc *Recoverer) RestoreState(d *codec.Decoder) {
	rc.dirty = true
	for j := range rc.synd {
		rc.synd[j] = field.New(d.U64())
	}
	rc.fp = field.New(d.U64())
}
