// Package core implements the paper's primary contributions: the
// O(ε^{-max(1,p)} log² n)-space approximate Lp sampler for p in (0,2)
// (Figure 1 / Theorem 1) and the O(log² n)-bit zero relative error L0
// sampler (Theorem 2).
//
// # Level assignment in the L0 sampler
//
// §2.1 defines subsampling sets I_k ⊆ [n] with E|I_k| = 2^k. Two readings
// are implemented, selected by L0Config.NestedLevels:
//
//   - Default (i.i.d., in place of §2.1's nested sets): membership is an
//     independent Bernoulli(2^k/n) coin per (level, coordinate), each drawn
//     from its own Nisan PRG block. The analysis of Theorem 2 only uses
//     per-level marginals, so independence across levels is admissible and
//     keeps levels statistically decoupled.
//   - NestedLevels (the paper's nested reading): one PRG block u_i per
//     coordinate and dyadic thresholds, i ∈ I_k iff u_i < 2^k/n · Modulus,
//     giving I_1 ⊆ I_2 ⊆ ... exactly as in §2.1. Same per-level marginals,
//     one PRG block per update instead of ⌊log n⌋, and a PRG stretched
//     to n instead of n·log n blocks (smaller seed). Validated by the E3
//     uniformity experiment and the nested-mode distribution tests.
//
// # The L0 ingestion fast path
//
// In both modes membership is decided by integer threshold compares on raw
// 61-bit blocks, and the blocks come off the generator's window tables
// (prng.Windows): the hash functions of Nisan's generator are affine, so the
// seed determines one affine pair per value of any field of address bits, and
// a coordinate's blocks are K independent multiply-adds A_k·P(i) + B_k on one
// composed prefix state P(i) — not K walks of the generator tree. There is
// one fold: ProcessBatch runs it level-major over chunks of l0Chunk updates,
// one pass of the SIMD polynomial kernel and one branch-free threshold pass
// per level, and hands each level its members as a sub-batch for the
// recoverer's four-abreast syndrome kernel (one multiply per syndrome per
// update, rho^i from radix-16 windows). Process buffers single updates
// (stream.Pending) for that fold under the Lp sampler's rules below. The
// tables, like the chunk scratch and the buffer, are built by the first fold
// or Process, so a sampler that is only constructed, loaded, merged and
// queried carries none of them.
//
// # The Lp update path
//
// An update reaches the shared p-stable sketch and, scaled by t_i^{-1/p}, each
// repetition's count-sketch and AMS sketch. There is one fold: processBlock
// runs every k-wise row over a block of keys through the SIMD kernel.
// ProcessBatch hands it its input batchBlock updates at a time, so the batch
// scratch the sampler and its sub-sketches retain is bounded by the block,
// whatever batch sizes callers use. Process buffers single updates
// (stream.Pending) and folds them 256 at a time; every query, Merge (both
// sides) and AppendState flush the buffer before they read the counters or
// guard flags, RestoreState drops it, and ProcessBatch flushes it first to
// keep the stream order. Every split of a stream into updates and batches therefore
// leaves bit-identical state.
//
// # The Lp recovery stage
//
// Theorem 1 outputs the first of the v repetitions that does not FAIL, so a
// query resolves repetitions in order only until it has its answer: Sample
// and First stop there, and only SampleAll (or a FAIL answer) resolves all v.
// The recovery cursor (how many repetitions have run, and their outputs)
// lives until the next mutation, so a later query continues where an earlier
// one stopped. Resolving a repetition runs the recovery stage of Figure 1 on
// it: z* and its best m-sparse approximation ẑ come from the count-sketch's
// blocked, threshold-pruned scan (countsketch.TopWith), the s-test subtracts
// ẑ from the AMS sketch entry by entry in ẑ's rank order (a fixed order: the
// subtraction cancels heavily, so its rounding depends on it), and the top
// coordinate is emitted if it clears ε^{-1/p}·r. All repetitions share one
// scan scratch and one ẑ buffer owned by the sampler, so a query allocates
// nothing proportional to n — and is, like an update, single-goroutine.
package core

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/countsketch"
	"repro/internal/hash"
	"repro/internal/norm"
	"repro/internal/stream"
)

// LpConfig configures an Lp sampler. Zero values select the paper's
// parameters (with empirically calibrated constants).
type LpConfig struct {
	// P is the sampling exponent, in (0,2). (p = 0 is L0Sampler; p = 2 is
	// not achievable by this method in O(log² n) space, see §2.)
	P float64
	// N is the dimension of the underlying vector.
	N int
	// Eps is the relative-error / success-rate parameter ε of Figure 1.
	Eps float64
	// Delta is the failure probability after repetition (Theorem 1).
	Delta float64

	// MFactor scales the count-sketch parameter m ("large enough constant").
	MFactor float64
	// Copies overrides the repetition count v = O(log(1/δ)/ε).
	Copies int

	// KOverride forces the independence of the scaling factors t_i
	// (ablation A1; the paper uses k = 10⌈1/|p-1|⌉, and k = O(log 1/ε)
	// for p = 1).
	KOverride int
	// DisableSTest turns off the recovery-stage abort on s > βm^{1/2}r
	// (ablation A2 — the conditioning fix of Lemma 3).
	DisableSTest bool
}

// Sample is a successful Lp-sampler output: the sampled index and the
// (1±ε)-relative-error estimate of x_i (footnote 1 of the paper: the
// algorithm approximates x_i itself, not |x_i|^p/||x||_p^p).
type Sample struct {
	Index    int
	Estimate float64
}

// Diagnostics reports how the repetitions a query resolved came out — the
// empirical counterpart of the event probabilities in Lemmas 3 and 4.
type Diagnostics struct {
	// Emitted repetitions produced a sample.
	Emitted int
	// STestAborts failed on s > βm^{1/2}r (the Lemma 3 event).
	STestAborts int
	// ThresholdFails had no coordinate reaching ε^{-1/p} r (the common,
	// by-design outcome: per-round success is only Θ(ε)).
	ThresholdFails int
	// Guarded tripped the t_i < n^{-c} guard during processing.
	Guarded int
}

// LpSampler is a one-pass streaming Lp sampler: v parallel repetitions of the
// Figure 1 round, sharing a single ||x||_p estimator (Lemma 4 conditions on a
// fixed r, so sharing r across repetitions is faithful to the analysis).
type LpSampler struct {
	cfg    LpConfig
	k      int     // independence of the scaling factors
	m      int     // count-sketch parameter
	beta   float64 // β = ε^{1-1/p}
	tMin   float64 // abort guard: fail a copy if some t_i < tMin (= n^{-c})
	copies []*lpCopy
	rNorm  *norm.Stable // shared sketch estimating ||x||_p
	diag   Diagnostics

	// pending holds the updates Process has taken and processBlock not yet
	// folded; every read of the counters or guard flags flushes it first.
	pending stream.Pending

	// Scratch buffers for ProcessBatch, grown on demand to at most batchBlock
	// and reused forever: the block's key view, the per-copy scaling factors
	// t_i from the k-wise Float64Batch kernel, and the guard-filtered scaled
	// block (z-space) shared by count-sketch and AMS. Steady-state calls
	// allocate nothing.
	scratchKey []uint64
	scratchT   []float64
	scratchIdx []uint64
	scratchZ   []float64

	// Query-side recovery cursor, reset by the first query after a mutation:
	// the query constants, how many repetitions (in order) have run the
	// recovery stage, and their non-FAIL outputs; diag counts the same
	// repetitions. A query resolves repetitions only until it has its answer,
	// and a later query on the unchanged sketch continues from the cursor.
	queryValid        bool
	threshold, sBound float64 // ε^{-1/p}·r and βm^{1/2}·r
	resolved          int
	cachedAll         []Sample

	// Recovery-stage scratch, shared by all repetitions: the block buffers
	// of the count-sketch scan, ẑ as Top returns it, and ẑ again as the
	// ordered sparse vector the AMS sketch subtracts. A query allocates
	// nothing proportional to n.
	scan countsketch.Scratch
	top  []countsketch.TopEntry
	zhat []norm.Entry
}

// Diagnostics returns the outcome counts of the repetitions resolved since the
// last mutation: every repetition after SampleAll, and after Sample or First
// those up to and including the one that answered.
func (s *LpSampler) Diagnostics() Diagnostics { return s.diag }

// lpCopy is one independent repetition of the Figure 1 round.
type lpCopy struct {
	t       *hash.FlatFamily    // one k-wise row: scaling factors t_i ∈ (0,1]
	cs      *countsketch.Sketch // count-sketch of z, z_i = x_i t_i^{-1/p}
	ams     *norm.AMS           // L2 sketch of z for s ≈ ||z - ẑ||₂
	guarded bool                // true once some t_i fell below tMin
}

// NewLpSampler constructs the sampler. It panics if p is outside (0,2) or
// eps/delta are not in (0,1).
func NewLpSampler(cfg LpConfig, r *rand.Rand) *LpSampler {
	if cfg.P <= 0 || cfg.P >= 2 {
		panic("core: LpSampler requires p in (0,2); use L0Sampler for p=0")
	}
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		panic("core: eps must be in (0,1)")
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		cfg.Delta = 0.25
	}
	if cfg.N < 1 {
		panic("core: n must be positive")
	}
	z := SizeLp(cfg)
	k, m, rows, copies := int(z.K), int(z.M), int(z.Rows), int(z.Copies)
	s := &LpSampler{
		cfg:    cfg,
		k:      k,
		m:      m,
		beta:   math.Pow(cfg.Eps, 1-1/cfg.P),
		tMin:   math.Pow(float64(cfg.N), -2) / 16,
		copies: make([]*lpCopy, copies),
		rNorm:  norm.NewStable(cfg.P, int(z.NormCounters), r),
	}
	for c := range s.copies {
		s.copies[c] = &lpCopy{
			t:   hash.NewFlatFamily(1, k, r),
			cs:  countsketch.New(m, rows, r),
			ams: norm.NewAMS(9, 6, r),
		}
	}
	return s
}

// LpSize is the shape NewLpSampler allocates for a config: the independence
// K of the scaling factors, the count-sketch parameter M and depth Rows, the
// counters of the shared norm estimator and the repetition count. The sizes
// are float64 so that any config, a hostile wire config block included, is
// priced without overflow; NewLpSampler converts them.
type LpSize struct {
	K, M, Rows, NormCounters, Copies float64
}

// SizeLp derives the shape of the Initialization stage of Figure 1 from cfg
// (p, ε and δ in range), applying the defaults of the zero override fields.
func SizeLp(cfg LpConfig) LpSize {
	p, eps := cfg.P, cfg.Eps
	z := LpSize{K: float64(cfg.KOverride), Copies: float64(cfg.Copies),
		Rows: math.Max(7, math.Ceil(math.Log2(float64(cfg.N)))+4), NormCounters: 80}
	if p < 0.75 {
		z.NormCounters = 140
	}
	if z.K <= 0 {
		if p == 1 {
			z.K = math.Ceil(4 * math.Log2(1/eps))
		} else {
			z.K = 10 * math.Ceil(1/math.Abs(p-1))
		}
		z.K = math.Max(z.K, 2)
	}
	mf := cfg.MFactor
	if mf <= 0 {
		mf = 16
	}
	if p == 1 {
		z.M = math.Ceil(mf * math.Max(1, math.Log2(1/eps)))
	} else {
		z.M = math.Ceil(mf * math.Pow(eps, -math.Max(0, p-1)))
	}
	z.M = math.Max(z.M, 2)
	if z.Copies <= 0 {
		// Per-round success is at least ~ε/2^p (Theorem 1 proof).
		perRound := eps / math.Pow(2, p)
		z.Copies = math.Max(1, math.Ceil(math.Log(1/cfg.Delta)/perRound))
	}
	return z
}

// Words prices the shape in 64-bit words: per repetition the count-sketch
// cells, the k scaling coefficients and the 9×6 AMS sketch with its sign
// seeds, plus the norm estimator's counters and per-counter rows.
func (z LpSize) Words() float64 {
	const amsWords = 9*6 + 9*4
	return z.Copies*(z.Rows*countsketch.BucketFactor*z.M+z.K+amsWords) + 3*z.NormCounters
}

// K returns the independence parameter in use for the scaling factors.
func (s *LpSampler) K() int { return s.k }

// M returns the count-sketch parameter m in use.
func (s *LpSampler) M() int { return s.m }

// Copies returns the number of parallel repetitions v.
func (s *LpSampler) Copies() int { return len(s.copies) }

// Process implements stream.Sink: it buffers the update, and a full buffer
// folds through ProcessBatch's block path. The buffer is flushed before
// anything reads the state, so every observable result is that of an
// immediate fold.
func (s *LpSampler) Process(u stream.Update) {
	s.queryValid = false
	s.pending.Add(u, s)
}

// tScale is a repetition's multiplier t_i^{-1/p}. At p = 1 it is 1/t_i,
// which is math.Pow(t_i, -1) bit for bit: Pow returns Ldexp(1/frac, -exp) for
// t_i = frac·2^exp, and scaling by a power of two is exact while the result
// stays normal, which the guard t_i >= tMin ensures.
func (s *LpSampler) tScale(ti float64) float64 {
	if s.cfg.P == 1 {
		return 1 / ti
	}
	return math.Pow(ti, -1/s.cfg.P)
}

// batchBlock is how many updates ProcessBatch folds at a time — the engine's
// default BatchSize. Every sub-sketch grows its batch scratch to the largest
// batch it is handed, so walking a large input in blocks keeps the scratch
// the sampler retains O(batchBlock) instead of O(largest batch ever seen)
// (the duplicate finders feed an n-letter prefix at construction).
const batchBlock = 2048

// ProcessBatch implements stream.BatchSink, folding the updates Process
// buffered and then the batch block by block. Steady-state calls allocate
// nothing.
func (s *LpSampler) ProcessBatch(batch []stream.Update) {
	s.pending.Flush(s)
	for len(batch) > 0 {
		n := min(len(batch), batchBlock)
		s.processBlock(batch[:n])
		batch = batch[n:]
	}
}

// processBlock folds one block of at most batchBlock updates. The block's
// keys are extracted once; each repetition then evaluates its k-wise scaling
// row through the SIMD Float64Batch kernel, builds the guard-filtered scaled
// z-block, and feeds it through the batched count-sketch and AMS hot paths.
func (s *LpSampler) processBlock(batch []stream.Update) {
	s.queryValid = false
	s.rNorm.ProcessBatch(batch)
	n := len(batch)
	keys := stream.Keys(batch, &s.scratchKey)
	if cap(s.scratchT) < n {
		s.scratchT = make([]float64, n)
		s.scratchIdx = make([]uint64, n)
		s.scratchZ = make([]float64, n)
	}
	ts := s.scratchT[:n]
	for _, c := range s.copies {
		c.t.Float64Batch(0, keys, ts)
		idx, zd := s.scratchIdx[:0], s.scratchZ[:0]
		for t, u := range batch {
			ti := ts[t]
			if ti < s.tMin {
				// Paper, Theorem 1 proof: "we can safely declare failure if
				// t_i^{-1} > n^c for some i" — a low-probability event.
				c.guarded = true
				continue
			}
			idx = append(idx, keys[t])
			zd = append(zd, float64(u.Delta)*s.tScale(ti))
		}
		c.cs.AddBatch(idx, zd)
		c.ams.AddFloatBatch(idx, zd)
	}
}

// Merge adds the linear state of another sampler so the result summarizes
// the sum of the two underlying vectors. Both samplers must be same-seed
// replicas: identical configuration and identical randomness in every
// repetition and the shared norm sketch. Guard trips are OR-ed, matching
// the "declare failure if any t_i fell below n^{-c}" semantics. Both sides'
// buffered updates are folded first.
func (s *LpSampler) Merge(other *LpSampler) error {
	if other == nil {
		return fmt.Errorf("core: %w", codec.ErrNilMerge)
	}
	if s.cfg.P != other.cfg.P || s.cfg.N != other.cfg.N ||
		s.k != other.k || s.m != other.m || len(s.copies) != len(other.copies) {
		return fmt.Errorf("core: merging Lp samplers of different configurations: %w", codec.ErrConfigMismatch)
	}
	for ci, c := range s.copies {
		if !c.t.Equal(other.copies[ci].t) {
			return fmt.Errorf("core: %w", codec.ErrSeedMismatch)
		}
	}
	s.queryValid = false
	s.pending.Flush(s)
	other.pending.Flush(other)
	for ci, c := range s.copies {
		oc := other.copies[ci]
		if err := c.cs.Merge(oc.cs); err != nil {
			return err
		}
		if err := c.ams.Merge(oc.ams); err != nil {
			return err
		}
		c.guarded = c.guarded || oc.guarded
	}
	return s.rNorm.Merge(other.rNorm)
}

// Sample returns the output of the first repetition whose recovery stage does
// not FAIL, resolving repetitions only until one answers: SampleAll()[0]
// without the rest. ok is false when every repetition fails (probability at
// most δ, plus the always-fail case of the zero vector).
func (s *LpSampler) Sample() (Sample, bool) { return s.First(acceptAny) }

func acceptAny(Sample) bool { return true }

// First returns the first non-FAIL output, in repetition order, that accept
// admits — the duplicates reduction of Theorem 3, for one, accepts the first
// sample whose estimate is positive. It resolves repetitions only until accept
// admits an output, continuing from where earlier queries on the unchanged
// sketch stopped, so a query pays about 1/ε recovery stages rather than v.
// ok is false when no output is admitted, every repetition then resolved.
// Recovery runs over scratch the sampler owns, so queries (like updates) are
// single-goroutine.
func (s *LpSampler) First(accept func(Sample) bool) (Sample, bool) {
	s.startQuery()
	for _, out := range s.cachedAll {
		if accept(out) {
			return out, true
		}
	}
	for s.resolved < len(s.copies) {
		if out, ok := s.resolveNext(); ok && accept(out) {
			return out, true
		}
	}
	return Sample{}, false
}

// SampleAll resolves the repetitions not yet resolved since the last mutation
// and returns every non-FAIL output in repetition order. It is the cost of a
// FAIL answer: Sample and First stop at their answer. Repeated calls on an
// unchanged sketch return the same outputs without re-running recovery. The
// returned slice is owned by the sampler and valid until the next mutating
// call — callers must not modify it.
func (s *LpSampler) SampleAll() []Sample {
	s.startQuery()
	for s.resolved < len(s.copies) {
		s.resolveNext()
	}
	return s.cachedAll
}

// startQuery folds the buffered updates and, on a state changed since the
// last query, resets the recovery cursor: the query constants are computed
// once and no repetition is resolved. The zero vector (r = 0) resolves every
// repetition at once, as FAIL, with nothing counted.
func (s *LpSampler) startQuery() {
	s.pending.Flush(s)
	if s.queryValid {
		return
	}
	s.queryValid = true
	s.diag = Diagnostics{}
	s.cachedAll = nil
	s.resolved = 0
	r := s.rNorm.UpperEstimate(nil)
	if r == 0 {
		s.resolved = len(s.copies)
		return
	}
	s.threshold = math.Pow(s.cfg.Eps, -1/s.cfg.P) * r
	s.sBound = s.beta * math.Sqrt(float64(s.m)) * r
}

// resolveNext runs the recovery stage of Figure 1 on the next unresolved
// repetition, counts its outcome and records a non-FAIL output in cachedAll.
func (s *LpSampler) resolveNext() (Sample, bool) {
	c := s.copies[s.resolved]
	s.resolved++
	if c.guarded {
		s.diag.Guarded++
		return Sample{}, false
	}
	// z* and its best m-sparse approximation ẑ, in rank order.
	s.top = c.cs.TopWith(&s.scan, s.cfg.N, s.m, s.top)
	top := s.top
	if len(top) == 0 {
		s.diag.ThresholdFails++
		return Sample{}, false
	}
	if !s.cfg.DisableSTest {
		s.zhat = s.zhat[:0]
		for _, e := range top {
			s.zhat = append(s.zhat, norm.Entry{Index: uint64(e.Index), Value: e.Estimate})
		}
		if c.ams.UpperEstimate(s.zhat) > s.sBound {
			s.diag.STestAborts++
			return Sample{}, false // FAIL: tail too heavy (Lemma 3 event)
		}
	}
	best := top[0] // Top sorts by decreasing |z*_i|
	if math.Abs(best.Estimate) < s.threshold {
		s.diag.ThresholdFails++
		return Sample{}, false // FAIL: no coordinate passed the ε^{-1/p} r limit
	}
	s.diag.Emitted++
	ti := c.t.Float64(0, uint64(best.Index))
	out := Sample{Index: best.Index, Estimate: best.Estimate * math.Pow(ti, 1/s.cfg.P)}
	s.cachedAll = append(s.cachedAll, out)
	return out, true
}

// AppendState writes the sampler's linear state into a codec encoder: per
// repetition the count-sketch cells, AMS counters and guard flag, then the
// shared norm sketch. Seeds and scaling factors are construction randomness
// and stay with the receiver, and the updates Process buffered are folded
// first.
func (s *LpSampler) AppendState(e *codec.Encoder) {
	s.pending.Flush(s)
	for _, c := range s.copies {
		c.cs.AppendState(e)
		c.ams.AppendState(e)
		e.Bool(c.guarded)
	}
	s.rNorm.AppendState(e)
}

// RestoreState replaces the sampler's linear state from a codec decoder,
// discarding the updates Process buffered, and resets the recovery cursor.
func (s *LpSampler) RestoreState(d *codec.Decoder) {
	s.queryValid = false
	s.pending.Drop()
	for _, c := range s.copies {
		c.cs.RestoreState(d)
		c.ams.RestoreState(d)
		c.guarded = d.Bool()
	}
	s.rNorm.RestoreState(d)
}
