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
// deterministically, a reversed-polynomial Chien scan over [n] locates the
// support without field inversions, and a transposed Vandermonde solve
// recovers the values — recovery is exact with probability 1, as Lemma 5
// demands. If x is not s-sparse, any spuriously decoded sparse candidate x”
// differs from x, so the random evaluation F catches it except with
// probability <= n/2^61 per query (a "low probability" event in the paper's
// sense); we then report DENSE.
//
// Update path. Each syndrome chain carries the product q = d·a^j itself and
// advances by q ← q·a — one field multiply per syndrome per update; batches
// run four such chains abreast (kernel.SyndromeAdd4) and sum a step's four
// products into the cell with a single reduction. rho^i comes from radix-16
// windows of rho (field.PowCache) that the first fold builds; New tabulates
// nothing.
//
// Query engine (PR 4). The decode is built on three structured kernels,
// behind an exact split test (field.SplitTester: a locator that is not a
// product of distinct linear factors has too few roots anywhere, so a dense
// sketch is told DENSE without the n-point scan): the Chien scan walks its consecutive evaluation points a_i = 1..n with a
// forward finite-difference stepper (field.FDStepper — e field Adds per
// position instead of a degree-e Horner chain) and exits once all
// e = deg(locator) roots are found; the value solve uses the O(e²)
// transposed-Vandermonde algorithm (field.VandermondeSolver) in place of
// generic Gaussian elimination; and syndrome verification advances one
// shared power chain per support point rather than re-exponentiating. All
// three are exact field arithmetic on the unique candidate, so decodes stay
// bit-identical to the generic pipeline. Results are memoized behind a
// dirty bit, so repeated queries on an unchanged sketch are O(1) and
// allocation-free.
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
// scratch (the reversed locator, the finite-difference table, the support
// and value buffers, the Vandermonde solver state) lives on the Recoverer
// and is reused, so steady-state Recover calls allocate nothing.
type Recoverer struct {
	n      int
	s      int
	synd   []field.Elem    // 2s power-sum syndromes
	rho    field.Elem      // random verification point
	rhoPow *field.PowCache // radix-16 windows of rho, built by the first rho^i asked for
	fp     field.Elem      // F = sum_i x_i rho^i

	// Query-side memoization and decode scratch.
	dirty     bool          // measurements changed since the last decode
	decoded   map[int]int64 // cached decode result (reused across decodes)
	decodeOK  bool          // cached DENSE/sparse verdict
	rev       field.Poly    // reversed locator buffer
	split     field.SplitTester
	fd        field.FDStepper
	scan      []field.Elem // Chien-scan block buffer (see decode)
	positions []int        // decoded support positions
	pts       []field.Elem // evaluation points a_t = pos_t + 1
	vals      []field.Elem // recovered values
	pw        []field.Elem // shared per-position power chain (verification)
	solver    field.VandermondeSolver
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

// fold adds d·a^j to every syndrome j and d·rho^i to the fingerprint, a = i+1.
// The chains carry the products themselves — q = d·a^j advancing by a², one
// for the even syndromes and one for the odd — so each syndrome costs one
// multiply (a power chain pw ← pw·a followed by d·pw costs two), and the two
// chains are independent, so the multiplier pipeline overlaps them.
// len(synd) = 2s is always even. It is ProcessBatch's fold for the tail of
// fewer than four updates, which is cheaper than a zero-padded group of four.
func (rc *Recoverer) fold(i int, d field.Elem) {
	a := field.New(uint64(i) + 1)
	a2 := field.Mul(a, a)
	qe, qo := d, field.Mul(d, a)
	synd := rc.synd
	for j := 0; ; j += 2 {
		synd[j] = field.Add(synd[j], qe)
		synd[j+1] = field.Add(synd[j+1], qo)
		if j+4 > len(synd) {
			break
		}
		qe = field.Mul(qe, a2)
		qo = field.Mul(qo, a2)
	}
	rc.fp = field.Add(rc.fp, field.Mul(d, rc.rhoPow.Pow(uint64(i))))
}

// Process implements stream.Sink: x_i += delta, as a batch of one.
func (rc *Recoverer) Process(u stream.Update) { rc.ProcessBatch([]stream.Update{u}) }

// ProcessBatch implements stream.BatchSink through the transposed syndrome
// kernel: updates are taken in register-blocked groups of four and the
// syndromes are walked column-major — outer loop over syndrome index j,
// inner over the group's per-update product chains q_i = d_i·a_i^j. A lone
// update's cost is its serial chain q ← q·a (2s dependent field multiplies,
// each waiting on the last); transposing keeps four independent chains in
// flight per j step, so the multiplier pipeline stays full instead of
// draining between syndromes, and the four products of a step are summed
// into the cell with one reduction (kernel.SyndromeAdd4). Group order and
// field arithmetic are exact, so every split of a stream into batches
// leaves the same state bit for bit (pinned by
// TestPropertyTransposedBatchMatchesScalar); the leftover tail (< 4 updates)
// takes the two-chain fold. Nothing allocates.
func (rc *Recoverer) ProcessBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	rc.dirty = true
	sw := field.Words(rc.synd)
	pc := rc.rhoPow
	fp := rc.fp
	i := 0
	for ; i+4 <= len(batch); i += 4 {
		u0, u1, u2, u3 := batch[i], batch[i+1], batch[i+2], batch[i+3]
		d := [4]uint64{
			uint64(field.FromInt64(u0.Delta)),
			uint64(field.FromInt64(u1.Delta)),
			uint64(field.FromInt64(u2.Delta)),
			uint64(field.FromInt64(u3.Delta)),
		}
		a := [4]uint64{
			uint64(field.New(uint64(u0.Index) + 1)),
			uint64(field.New(uint64(u1.Index) + 1)),
			uint64(field.New(uint64(u2.Index) + 1)),
			uint64(field.New(uint64(u3.Index) + 1)),
		}
		kernel.SyndromeAdd4(sw, d, a)
		f := field.Add(
			field.Mul(field.Elem(d[0]), pc.Pow(uint64(u0.Index))),
			field.Mul(field.Elem(d[1]), pc.Pow(uint64(u1.Index))))
		f = field.Add(f, field.Mul(field.Elem(d[2]), pc.Pow(uint64(u2.Index))))
		f = field.Add(f, field.Mul(field.Elem(d[3]), pc.Pow(uint64(u3.Index))))
		fp = field.Add(fp, f)
	}
	rc.fp = fp
	for ; i < len(batch); i++ {
		rc.fold(batch[i].Index, field.FromInt64(batch[i].Delta))
	}
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

// splitTestFloor gates the split test of decode on the size of the scan it
// can save: the test costs about 61·1.5·e² multiplications whatever n is
// (≈ 220 ns·e² measured), the finite-difference Chien scan ≈ 5.5 ns per
// position whatever e is, so the two meet near n = 40·e². The test runs when
// n > splitTestFloor·e² — from where it is the cheaper way to a DENSE
// verdict, and at most a fraction of the scan it precedes when the locator
// does split. Below that the scan alone is faster and decides the same thing.
const splitTestFloor = 64

// decode runs one full recovery into rc.decoded. The pipeline is the
// classical syndrome decoder of Lemma 5, rebuilt on the query kernels:
//
//  1. Berlekamp-Massey finds the locator polynomial from the 2s syndromes
//     (locator).
//  2. Split test, on dimensions large enough for it to pay: the reversed
//     locator must be a product of e distinct linear factors to have e roots
//     anywhere, let alone among the n positions, and field.SplitTester decides
//     that in 61 modular squarings. A dense vector's locator is a random
//     degree-s polynomial and all but never splits, so the n-point scan that
//     would find it short of roots is skipped; a locator that does split goes
//     on to the unchanged scan. The verdict and the decoded map are those of
//     the scan alone on every input.
//  3. The Chien scan locates the support (scanRoots): position i is in it iff
//     rev(loc)(a_i) = 0 with a_i = i+1. The points are consecutive, so a
//     field.FDStepper walks them by forward differences — deg(loc) Adds per
//     position instead of a full Horner chain — and the scan exits as soon
//     as e = deg(loc) roots are found (a degree-e polynomial has no more).
//  4. The values come from the transposed Vandermonde solve
//     Σ_t v_t a_t^j = S_j (j < e) in O(e²) via field.VandermondeSolver, and
//     verification replays all 2s syndromes through one shared per-position
//     power chain (pw_t ← pw_t·a_t per syndrome step — two Muls per entry
//     instead of a fresh field.Pow ladder), then checks the rho fingerprint
//     (solveAndVerify).
//
// Every step is exact field arithmetic producing the unique candidate, so
// decodes are bit-identical to the pre-PR-4 Horner-scan/Gaussian decoder.
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
	if e := len(rev) - 1; rc.n > splitTestFloor*e*e && !rc.split.Splits(rev) {
		return false
	}
	return rc.scanRoots(rev) && rc.solveAndVerify()
}

// locator returns the reversed locator polynomial of the current syndromes
// in rc.rev — monic, nonzero constant term, degree e in [1, s] — or nil when
// Berlekamp-Massey's locator has a degree no s-sparse vector produces.
func (rc *Recoverer) locator() field.Poly {
	loc := field.BerlekampMassey(rc.synd)
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

// scanRoots fills rc.positions with the roots of rev among the points
// a_i = i+1, i < n, and reports whether there are deg(rev) of them.
func (rc *Recoverer) scanRoots(rev field.Poly) bool {
	e := len(rev) - 1
	// Finite-difference Chien scan over the consecutive points 1..n in blocks
	// of chienBlock values per kernel dispatch (field.FDStepper.NextBlock),
	// early exit once all e roots are found. The block granularity computes at
	// most chienBlock-1 values past the last root — e extra Adds each — which
	// is noise next to the per-position dispatch the block form removes.
	const chienBlock = 256
	positions := rc.positions[:0]
	rc.fd.Reset(rev, 1)
	scan := growElems(&rc.scan, min(chienBlock, rc.n))
scanLoop:
	for base := 0; base < rc.n; base += len(scan) {
		blk := scan[:min(len(scan), rc.n-base)]
		rc.fd.NextBlock(blk)
		for t, v := range blk {
			if v == 0 {
				positions = append(positions, base+t)
				if len(positions) == e {
					break scanLoop
				}
			}
		}
	}
	rc.positions = positions
	return len(positions) == e
}

// solveAndVerify solves for the values at rc.positions, checks the candidate
// against every measurement and, if it stands, stores it in rc.decoded.
func (rc *Recoverer) solveAndVerify() bool {
	positions := rc.positions
	e := len(positions)
	// Structured transposed-Vandermonde value solve on S_0..S_{e-1}.
	pts := growElems(&rc.pts, e)
	vals := growElems(&rc.vals, e)
	for t, pos := range positions {
		pts[t] = field.New(uint64(pos) + 1)
	}
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
	for t, pos := range positions {
		f = field.Add(f, field.Mul(vals[t], rc.rhoPow.Pow(uint64(pos))))
	}
	if f != rc.fp {
		return false
	}
	for t, pos := range positions {
		v := vals[t].ToInt64()
		if v == 0 {
			// A zero value contradicts membership in the support; the
			// decoded candidate is inconsistent.
			return false
		}
		rc.decoded[pos] = v
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
// cells (the lazy five-term sum of kernel.SyndromeAdd4 has no headroom for a
// word near 2^64), and the words come from a peer.
func (rc *Recoverer) RestoreState(d *codec.Decoder) {
	rc.dirty = true
	for j := range rc.synd {
		rc.synd[j] = field.New(d.U64())
	}
	rc.fp = field.New(d.U64())
}
