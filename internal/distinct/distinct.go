// Package distinct implements a rough (constant-factor) L0 estimator for
// turnstile streams: the number of nonzero coordinates of x up to a
// multiplicative constant, with high probability.
//
// The paper uses L0 estimation in two places: the appendix remark after
// Proposition 5 ("one can find an O(log n log log n log 1/δ) space two-pass
// zero relative error L0-sampling algorithm, by estimating L0 of the vector
// ... in the first pass using [17]"), and implicitly in the two-round UR
// protocol, where the first round's job is to locate a subsampling level
// with 1..s surviving differences. This package provides that primitive.
//
// Construction (the standard nested level tester). Repetition j draws one
// pairwise hash h_j: [n] -> [0,1) and one fingerprint point ρ_j. Coordinate
// i survives to level k in repetition j when h_j(i) < 2^{-k} — so the level
// sets are nested and one hash evaluation per repetition serves all levels.
// Each (level, repetition) cell keeps the field fingerprint
// F_{k,j} = Σ_{i: h_j(i)<2^{-k}} x_i ρ_j^i, which is nonzero exactly when
// the restricted vector is nonzero (up to the ≤ n/2⁶¹ collision
// probability). A level is "live" when a majority of its R repetitions hold
// a nonzero fingerprint:
//
//	P[cell live] = 1 − (1 − 2^{-k})^{L0}  — ≥ 0.86 when 2^k ≤ L0/2,
//	                                        ≤ 1/8 when 2^k ≥ 8·L0,
//
// so with R = Θ(log(1/δ)) repetitions the deepest live level k* satisfies
// 2^{k*} ∈ [L0/2, 8·L0] with probability 1−δ: a constant-factor estimate.
//
// Space: levels × R fingerprint words plus only R seed pairs —
// O(log n · log(1/δ)) words. (The full [17] estimator squeezes the cells to
// O(log log n) bits each; we keep whole words — the constant-factor
// estimate is all the two-pass sampler and the two-round UR protocol
// consume.)
package distinct

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/hash"
	"repro/internal/stream"
)

// Estimator is the rough L0 estimator. It is a linear sketch: interleaved
// insertions and deletions are fine.
type Estimator struct {
	n      int
	levels int
	reps   int
	member *hash.FlatFamily  // one membership hash row per repetition (nested levels)
	rho    []field.Elem      // one fingerprint point per repetition
	rhoPow []*field.PowCache // windowed tables of rho_j, built by the first fold
	fp     [][]field.Elem    // fp[k][j]: fingerprint of level k, repetition j

	// Batch scratch (key view of the batch, per-repetition membership
	// uniforms), grown on demand: steady-state ProcessBatch allocates nothing.
	scratchIdx []uint64
	scratchU   []float64
}

// New constructs an estimator for dimension n with the given repetition
// count (Θ(log 1/δ); 12 gives δ well under 5% in practice).
func New(n, reps int, r *rand.Rand) *Estimator {
	if n < 1 {
		panic("distinct: n must be positive")
	}
	if reps < 1 {
		reps = 1
	}
	levels := 1
	for 1<<levels < n {
		levels++
	}
	levels++
	e := &Estimator{
		n:      n,
		levels: levels,
		reps:   reps,
		member: hash.NewFlatFamily(reps, 2, r),
		rho:    make([]field.Elem, reps),
		rhoPow: make([]*field.PowCache, reps),
		fp:     make([][]field.Elem, levels),
	}
	for j := range e.rho {
		rho := field.New(r.Uint64())
		for rho == 0 {
			rho = field.New(r.Uint64())
		}
		e.rho[j] = rho
		e.rhoPow[j] = field.NewPowCache(rho)
	}
	for k := range e.fp {
		e.fp[k] = make([]field.Elem, reps)
	}
	return e
}

// Process implements stream.Sink, as a batch of one.
func (e *Estimator) Process(u stream.Update) { e.ProcessBatch([]stream.Update{u}) }

// ProcessBatch implements stream.BatchSink: repetition-major delivery. The
// batch's keys are extracted once; each repetition then evaluates its
// membership row through the flat Float64Batch kernel — one hash value h_j(i)
// decides the deepest level the coordinate survives to — and adds the
// fingerprint contribution delta·rho_j^i (rho_j^i via the repetition's
// PowCache) to levels 0..deepest. Steady-state calls allocate nothing.
func (e *Estimator) ProcessBatch(batch []stream.Update) {
	n := len(batch)
	idx := stream.Keys(batch, &e.scratchIdx)
	if cap(e.scratchU) < n {
		e.scratchU = make([]float64, n)
	}
	us := e.scratchU[:n]
	for j := 0; j < e.reps; j++ {
		e.member.Float64Batch(j, idx, us)
		pw := e.rhoPow[j]
		for t, u := range batch {
			h := us[t]
			if h >= 1 {
				continue
			}
			contrib := field.Mul(field.FromInt64(u.Delta), pw.Pow(idx[t]))
			q := 1.0
			for k := 0; k < e.levels; k++ {
				if h >= q {
					break
				}
				e.fp[k][j] = field.Add(e.fp[k][j], contrib)
				q /= 2
			}
		}
	}
}

// Merge adds another estimator's fingerprints into this one (sketch
// linearity). Both must be same-seed replicas; a mismatch is reported as an
// error and leaves the receiver untouched.
func (e *Estimator) Merge(other *Estimator) error {
	if other == nil {
		return fmt.Errorf("distinct: %w", codec.ErrNilMerge)
	}
	if e.n != other.n || e.levels != other.levels || e.reps != other.reps {
		return fmt.Errorf("distinct: merging estimators of different shapes: %w", codec.ErrConfigMismatch)
	}
	if !e.member.Equal(other.member) {
		return fmt.Errorf("distinct: %w", codec.ErrSeedMismatch)
	}
	for j := range e.rho {
		if e.rho[j] != other.rho[j] {
			return fmt.Errorf("distinct: %w", codec.ErrSeedMismatch)
		}
	}
	for k := range e.fp {
		for j := range e.fp[k] {
			e.fp[k][j] = field.Add(e.fp[k][j], other.fp[k][j])
		}
	}
	return nil
}

// liveLevel reports whether a majority of repetitions at level k hold
// nonzero fingerprints.
func (e *Estimator) liveLevel(k int) bool {
	live := 0
	for j := 0; j < e.reps; j++ {
		if e.fp[k][j] != 0 {
			live++
		}
	}
	return 2*live > e.reps
}

// Estimate returns a constant-factor approximation of L0(x): 0 exactly when
// the sketch has seen a (net) zero vector, otherwise a value within a small
// constant factor of the true support size w.h.p.
func (e *Estimator) Estimate() int64 {
	if !e.liveLevel(0) {
		// Level 0 fingerprints all zero: the vector is zero (up to the
		// n/2^61 fingerprint collision probability).
		return 0
	}
	deepest := 0
	for k := 1; k < e.levels; k++ {
		if e.liveLevel(k) {
			deepest = k
		}
	}
	// 2^{k*} ∈ [L0/2, 8·L0] w.h.p.; report 2·2^{k*} to centre the band.
	return int64(2) << deepest
}

// AppendState writes the level fingerprints into a codec encoder.
func (e *Estimator) AppendState(enc *codec.Encoder) {
	for _, lvl := range e.fp {
		for _, v := range lvl {
			enc.U64(uint64(v))
		}
	}
}

// RestoreState replaces the level fingerprints from a codec decoder.
func (e *Estimator) RestoreState(d *codec.Decoder) {
	for _, lvl := range e.fp {
		for j := range lvl {
			lvl[j] = field.New(d.U64())
		}
	}
}
