package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/codec"
	"repro/internal/distinct"
	"repro/internal/prng"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// TwoPassL0Sampler implements the paper's appendix remark after
// Proposition 5: "along similar lines one can find an
// O(log n log log n log 1/δ) space two-pass zero relative error L0-sampling
// algorithm, by estimating L0 of the vector defined by the stream in the
// first pass".
//
// Pass 1 runs the rough L0 estimator (internal/distinct, the [17]-style
// level tester). Between passes, the sampler commits to a single
// subsampling probability q ≈ s/(2·L̂0), sized so the expected number of
// surviving support elements is s/2 ∈ [1, s]. Pass 2 maintains one exact
// s-sparse recoverer (Lemma 5) over that single level — instead of the
// ⌊log n⌋ levels the one-pass Theorem 2 sampler must carry, because it
// cannot know L0 in advance. The sample is a uniformly random element of
// the recovered support with its exact value.
//
// Space: O(log n log(1/δ)) words for pass 1 plus O(log(1/δ)) words for
// pass 2 — asymptotically below the one-pass sampler's O(log² n) bits,
// which is the point of the remark.
type TwoPassL0Sampler struct {
	n    int
	s    int
	est  *distinct.Estimator
	gen  *prng.Nisan
	rec  *sparse.Recoverer
	q    float64 // pass-2 subsampling probability
	pass int     // 1 or 2

	// Batch scratch for the pass-2 membership filter; steady-state
	// ProcessBatch calls allocate nothing.
	batchBuf []stream.Update
}

// NewTwoPassL0Sampler constructs the sampler for dimension n and failure
// probability delta.
func NewTwoPassL0Sampler(n int, delta float64, r *rand.Rand) *TwoPassL0Sampler {
	if n < 1 {
		panic("core: n must be positive")
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.25
	}
	// s = Θ(log 1/δ) with the Theorem 2 constant: 4·s₀ for the least s₀ >= 4
	// with 2^s₀ >= ⌊4/δ⌋, compared in floats and capped at 62 so that no δ in
	// (0,1) overflows the shift or the conversion.
	s := 4
	for s < 62 && math.Exp2(float64(s)) < math.Floor(4/delta) {
		s++
	}
	s = 4 * s
	return &TwoPassL0Sampler{
		n:    n,
		s:    s,
		est:  distinct.New(n, 12, r),
		gen:  prng.New(uint64(n)*prng.BlockBits+prng.BlockBits, r),
		rec:  sparse.New(n, s, r),
		pass: 1,
	}
}

// S returns the pass-2 sparse recovery budget.
func (tp *TwoPassL0Sampler) S() int { return tp.s }

// Process implements stream.Sink for the current pass, as a batch of one.
func (tp *TwoPassL0Sampler) Process(u stream.Update) { tp.ProcessBatch([]stream.Update{u}) }

// ProcessBatch implements stream.BatchSink for the current pass: pass 1
// flows through the estimator's batched path; pass 2 filters the batch down
// to the committed subsampling level and feeds the recoverer's transposed
// kernel.
func (tp *TwoPassL0Sampler) ProcessBatch(batch []stream.Update) {
	if tp.pass == 1 {
		tp.est.ProcessBatch(batch)
		return
	}
	kept := tp.batchBuf[:0]
	for _, u := range batch {
		if tp.member(u.Index) {
			kept = append(kept, u)
		}
	}
	tp.batchBuf = kept
	if len(kept) > 0 {
		tp.rec.ProcessBatch(kept)
	}
}

// Merge adds another sampler's state for the current pass (sketch
// linearity), so that a sharded first or second pass can be folded into one
// sampler. Both must be same-seed replicas in the same pass; pass-2 merges
// additionally require an identical committed level q — replicas that
// called EndPass1 on different estimates subsample different sets and are
// rejected. Validation runs before any mutation.
func (tp *TwoPassL0Sampler) Merge(other *TwoPassL0Sampler) error {
	if other == nil {
		return fmt.Errorf("core: %w", codec.ErrNilMerge)
	}
	if tp.n != other.n || tp.s != other.s {
		return fmt.Errorf("core: merging two-pass samplers of different shapes: %w", codec.ErrConfigMismatch)
	}
	if tp.pass != other.pass || tp.q != other.q {
		return fmt.Errorf("core: merging two-pass samplers in different passes: %w", codec.ErrConfigMismatch)
	}
	if !tp.rec.Compatible(other.rec) {
		return fmt.Errorf("core: %w", codec.ErrSeedMismatch)
	}
	if err := tp.est.Merge(other.est); err != nil {
		return err
	}
	return tp.rec.Merge(other.rec)
}

// AppendState writes the sampler's dynamic state into a codec encoder: the
// pass marker and committed level first, then the pass-1 estimator
// fingerprints and the pass-2 recoverer measurements.
func (tp *TwoPassL0Sampler) AppendState(e *codec.Encoder) {
	e.U64(uint64(tp.pass))
	e.F64(tp.q)
	tp.est.AppendState(e)
	tp.rec.AppendState(e)
}

// RestoreState replaces the sampler's dynamic state from a codec decoder.
// A pass marker outside {1, 2} marks the decoder failed (the payload is not
// covered by the header fingerprint, so corruption must surface here rather
// than leave the sampler routing updates against inconsistent state).
func (tp *TwoPassL0Sampler) RestoreState(d *codec.Decoder) {
	pass := int(d.U64())
	if pass != 1 && pass != 2 {
		d.Fail(fmt.Errorf("core: two-pass restore with pass marker %d: %w", pass, codec.ErrBadConfig))
		return
	}
	tp.pass = pass
	tp.q = d.F64()
	tp.est.RestoreState(d)
	tp.rec.RestoreState(d)
}

// member decides pass-2 membership from the PRG (consistent per index).
func (tp *TwoPassL0Sampler) member(i int) bool {
	if tp.q >= 1 {
		return true
	}
	return tp.gen.Float64At(uint64(i)) < tp.q
}

// EndPass1 commits the subsampling level from the pass-1 estimate. It must
// be called exactly once, after the full stream has been processed in pass 1
// and before any pass-2 update.
func (tp *TwoPassL0Sampler) EndPass1() {
	l0 := tp.est.Estimate()
	if l0 <= int64(tp.s)/2 {
		tp.q = 1 // small support: recover the whole vector
	} else {
		tp.q = float64(tp.s) / (2 * float64(l0))
	}
	tp.pass = 2
}

// Sample returns a uniform support element with its exact value. ok is
// false when the pass-2 recovery fails (probability ≤ δ) or the vector is
// zero. It must be called after the stream was replayed through pass 2.
func (tp *TwoPassL0Sampler) Sample() (Sample, bool) {
	if tp.pass != 2 {
		return Sample{}, false
	}
	rec, ok := tp.rec.Recover()
	if !ok || len(rec) == 0 {
		return Sample{}, false
	}
	support := make([]int, 0, len(rec))
	for i := range rec {
		support = append(support, i)
	}
	sort.Ints(support)
	u := tp.gen.Float64At(uint64(tp.n)) // reserved final block
	idx := support[int(u*float64(len(support)))%len(support)]
	return Sample{Index: idx, Estimate: float64(rec[idx])}, true
}
