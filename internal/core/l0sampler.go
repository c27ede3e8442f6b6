package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/prng"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// L0Config configures the zero relative error L0 sampler of Theorem 2.
type L0Config struct {
	// N is the dimension of the underlying vector.
	N int
	// Delta is the failure probability bound.
	Delta float64
	// SOverride forces the per-level sparse-recovery budget s
	// (default ⌈4 log₂(1/δ)⌉ as in the proof of Theorem 2).
	SOverride int
	// NestedLevels switches level membership from independent per-(level,
	// coordinate) coins (substitution #2: i.i.d. I_k) to the paper's §2.1
	// nested reading I_1 ⊆ I_2 ⊆ ... ⊆ I_K: one PRG block u_i per
	// coordinate decides every level at once via the dyadic thresholds
	// "i ∈ I_k iff u_i < 2^k/n · Modulus". Membership still holds
	// per-coordinate with probability ~2^k/n at every level, but one tree
	// walk replaces ⌊log n⌋ of them per update, and the PRG only has to
	// stretch to n blocks instead of n log n.
	NestedLevels bool
}

// L0Sampler samples a uniformly random element of the support of x, together
// with the exact value x_i (sparse recovery is exact, hence "zero relative
// error"). Structure, following §2.1:
//
//   - subsets I_k ⊆ [n] for k = 1..K with E|I_k| = 2^k, where K is the last
//     level with 2^K < n, plus I_0 = [n] (levels whose inclusion probability
//     reaches 1 duplicate I_0 and are not materialized);
//   - an exact s-sparse recoverer (Lemma 5) on x restricted to each I_k;
//   - the sample is a uniformly random nonzero coordinate of the first level
//     that recovers a nonzero s-sparse vector.
//
// All membership bits and the final uniform choice are drawn from Nisan's
// PRG with an O(log² n)-bit seed, exactly as the derandomization step of
// Theorem 2 prescribes. Membership is decided per (level, coordinate) by
// comparing a raw 61-bit PRG block against a precomputed integer threshold
// T_k with T_k/Modulus ~ 2^k/n — no float division on the update path — and
// the per-update blocks are fetched through the generator's prefix-sharing
// batch kernel: the blocks of one update live at consecutive addresses
// i·stride + (k-1), so one partial tree walk serves all levels.
//
// With NestedLevels the sets are nested as in the paper's original
// formulation (one block per coordinate, dyadic thresholds); the default
// remains independent per-level coins (substitution #2 in DESIGN.md).
type L0Sampler struct {
	n      int
	s      int
	nested bool
	levels []*sparse.Recoverer
	gen    *prng.Nisan

	// thresholds[k]: coordinate i belongs to I_k iff its membership block
	// is < thresholds[k]; thresholds[0] = Modulus (I_0 = [n]).
	thresholds []uint64
	// stride is the number of PRG blocks reserved per coordinate in the
	// default i.i.d. mode: the next power of two above the number of
	// PRG-tested levels, so one update's blocks share their high address
	// bits (and hence their h_j prefix applications) maximally.
	stride uint64
	// sampleBase is the first PRG block reserved for Sample's uniform
	// support choices — block sampleBase+k serves recovery level k.
	sampleBase uint64

	// Reusable scratch for the batched paths (grown once, then steady
	// state allocates nothing): per-update block addresses and values,
	// and one membership-filtered sub-batch per tested level.
	idxScratch []uint64
	blkScratch []uint64
	lvlBufs    [][]stream.Update

	// Query-side memoization: Sample's outcome is cached until the next
	// mutation (Process/ProcessBatch/Merge/ImportState). Per-level decodes
	// are additionally memoized inside each sparse.Recoverer, so after a
	// mutation only the levels it actually touched re-decode.
	queryValid     bool
	cachedSample   Sample
	cachedOK       bool
	supportScratch []int
}

// NewL0Sampler constructs the sampler, drawing the PRG seed and the
// sparse-recovery verification points from r.
func NewL0Sampler(cfg L0Config, r *rand.Rand) *L0Sampler {
	if cfg.N < 1 {
		panic("core: n must be positive")
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		cfg.Delta = 0.25
	}
	s := cfg.SOverride
	if s <= 0 {
		s = int(math.Ceil(4 * math.Log2(1/cfg.Delta)))
		if s < 4 {
			s = 4
		}
	}
	// K = last level whose inclusion probability 2^K/n is below 1. Levels
	// at probability >= 1 would be copies of I_0 = [n]; the sampler keeps
	// exactly one full level.
	K := 0
	for uint64(1)<<(K+1) < uint64(cfg.N) {
		K++
	}
	numLevels := K + 1
	stride := uint64(1)
	for stride < uint64(K) {
		stride <<= 1
	}
	l := &L0Sampler{
		n:          cfg.N,
		s:          s,
		nested:     cfg.NestedLevels,
		levels:     make([]*sparse.Recoverer, numLevels),
		thresholds: make([]uint64, numLevels),
		stride:     stride,
	}
	// Membership blocks per coordinate (stride in i.i.d. mode, one in
	// nested mode) plus one reserved block per level for Sample.
	if l.nested {
		l.sampleBase = uint64(cfg.N)
	} else {
		l.sampleBase = uint64(cfg.N) * stride
	}
	l.gen = prng.New((l.sampleBase+uint64(numLevels))*prng.BlockBits, r)
	l.thresholds[0] = field.Modulus
	for k := 1; k < numLevels; k++ {
		l.thresholds[k] = prng.Threshold(float64(uint64(1)<<k) / float64(cfg.N))
	}
	for k := range l.levels {
		l.levels[k] = sparse.New(cfg.N, s, r)
	}
	if K > 0 {
		l.idxScratch = make([]uint64, K)
		l.blkScratch = make([]uint64, K)
	}
	l.lvlBufs = make([][]stream.Update, numLevels)
	return l
}

// S returns the per-level sparsity budget.
func (l *L0Sampler) S() int { return l.s }

// Levels returns the number of subsampling levels (level 0 plus every level
// with inclusion probability below 1).
func (l *L0Sampler) Levels() int { return len(l.levels) }

// NestedLevels reports whether the sampler uses the nested dyadic level
// assignment.
func (l *L0Sampler) NestedLevels() bool { return l.nested }

// memberBlocks fills l.blkScratch with the membership blocks governing
// coordinate i at tested levels 1..K (blkScratch[k-1] decides level k) and
// returns the slice. In i.i.d. mode these are the K consecutive blocks at
// i·stride, one fresh draw per level; in nested mode the single block at
// address i is replicated, realizing the nested sets.
func (l *L0Sampler) memberBlocks(i int) []uint64 {
	K := len(l.levels) - 1
	blks := l.blkScratch[:K]
	if l.nested {
		idx := l.idxScratch[:1]
		idx[0] = uint64(i)
		l.gen.BlockBatch(blks[:1], idx)
		for t := 1; t < K; t++ {
			blks[t] = blks[0]
		}
		return blks
	}
	idx := l.idxScratch[:K]
	base := uint64(i) * l.stride
	for t := range idx {
		idx[t] = base + uint64(t)
	}
	l.gen.BlockBatch(blks, idx)
	return blks
}

// member reports whether coordinate i belongs to I_k. Level 0 is all of [n].
func (l *L0Sampler) member(k, i int) bool {
	if k == 0 {
		return true
	}
	return l.memberBlocks(i)[k-1] < l.thresholds[k]
}

// Process implements stream.Sink: the update reaches the recoverer of every
// level whose subset contains the coordinate. One prefix-stack walk fetches
// all membership blocks; levels are then integer-threshold compares.
func (l *L0Sampler) Process(u stream.Update) {
	l.queryValid = false
	l.levels[0].Process(u)
	if len(l.levels) == 1 {
		return
	}
	blks := l.memberBlocks(u.Index)
	for t, blk := range blks {
		if blk < l.thresholds[t+1] {
			l.levels[t+1].Process(u)
		}
	}
}

// ProcessBatch implements stream.BatchSink: update-major delivery. Level 0
// consumes the whole batch directly; for the tested levels, each update's
// membership blocks come from one batched PRG walk and the update is routed
// into per-level sub-batches, which then flow through the recoverers'
// transposed batch kernel. State matches repeated Process calls exactly
// (field arithmetic is exact and per-level orders are preserved); nothing
// allocates at steady state.
func (l *L0Sampler) ProcessBatch(batch []stream.Update) {
	if len(batch) == 0 {
		return
	}
	l.queryValid = false
	l.levels[0].ProcessBatch(batch)
	K := len(l.levels) - 1
	if K == 0 {
		return
	}
	bufs := l.lvlBufs
	for k := 1; k <= K; k++ {
		bufs[k] = bufs[k][:0]
	}
	thresholds := l.thresholds
	for _, u := range batch {
		blks := l.memberBlocks(u.Index)
		for t, blk := range blks {
			if blk < thresholds[t+1] {
				bufs[t+1] = append(bufs[t+1], u)
			}
		}
	}
	for k := 1; k <= K; k++ {
		if len(bufs[k]) > 0 {
			l.levels[k].ProcessBatch(bufs[k])
		}
	}
}

// Sample returns a uniform sample from the support of x together with the
// exact value x_i. ok is false when every level fails — probability at most
// δ + O(n^{-c}) (Theorem 2), and always for the zero vector.
//
// Queries are memoized: on an unchanged sketch, repeated calls return the
// cached outcome without touching the levels (and without allocating).
// After a mutation, only the levels the mutation reached re-decode — the
// others answer from their own caches.
func (l *L0Sampler) Sample() (Sample, bool) {
	if l.queryValid {
		return l.cachedSample, l.cachedOK
	}
	l.cachedSample, l.cachedOK = l.resample()
	l.queryValid = true
	return l.cachedSample, l.cachedOK
}

// resample runs the actual level probe (the pre-memoization Sample).
func (l *L0Sampler) resample() (Sample, bool) {
	for k := range l.levels {
		rec, ok := l.levels[k].Recover()
		if !ok || len(rec) == 0 || len(rec) > l.s {
			continue
		}
		// Uniform choice among the recovered support. The randomness is the
		// PRG block reserved for THIS level (block sampleBase+k), so samples
		// resolved at different levels draw distinct pseudorandom values,
		// and the index comes from a width-based integer reduction
		// ⌊block·|support|/2^61⌋ — unbiased to within 2^-61 per element,
		// with no float conversion.
		support := l.supportScratch[:0]
		for i := range rec {
			support = append(support, i)
		}
		sort.Ints(support)
		l.supportScratch = support
		blk := l.gen.Block(l.sampleBase + uint64(k))
		hi, lo := bits.Mul64(blk, uint64(len(support)))
		idx := support[hi<<3|lo>>61]
		return Sample{Index: idx, Estimate: float64(rec[idx])}, true
	}
	return Sample{}, false
}

// RecoverLevel decodes the level-k restriction of x exactly (Lemma 5),
// memoized per level. The returned map is owned by the level's recoverer
// and valid until the next mutating call. Distinct levels share no decode
// state, so concurrent RecoverLevel calls on different k are safe.
func (l *L0Sampler) RecoverLevel(k int) (map[int]int64, bool) {
	return l.levels[k].Recover()
}

// Merge adds the linear state of another sampler built with the same
// dimension and the same randomness source position (i.e. constructed from
// an identically seeded *rand.Rand), so that the merged sampler summarizes
// the sum of the two underlying vectors. Linearity is what downstream
// applications like graph connectivity sketches and the sharded ingestion
// engine rely on. Incompatible shapes, differing level-assignment modes, or
// mismatched per-level verification points (the fingerprint of differently
// seeded replicas) are reported as an error; validation runs before any
// mutation, so a failed merge leaves the receiver untouched.
func (l *L0Sampler) Merge(other *L0Sampler) error {
	if other == nil {
		return fmt.Errorf("core: %w", codec.ErrNilMerge)
	}
	if l.n != other.n || l.s != other.s ||
		len(l.levels) != len(other.levels) || l.nested != other.nested {
		return fmt.Errorf("core: merging incompatible L0 samplers: %w", codec.ErrConfigMismatch)
	}
	for k := range l.levels {
		if !l.levels[k].Compatible(other.levels[k]) {
			return fmt.Errorf("core: %w", codec.ErrSeedMismatch)
		}
	}
	l.queryValid = false
	for k := range l.levels {
		if err := l.levels[k].Merge(other.levels[k]); err != nil {
			return err
		}
	}
	return nil
}

// SpaceBits reports the streaming state: per-level syndromes plus the PRG
// seed — the O(log² n log(1/δ)) bits of Theorem 2. (The PRG output is
// recomputed on demand and is not stored.)
func (l *L0Sampler) SpaceBits() int64 {
	var bits int64
	for _, lv := range l.levels {
		bits += lv.SpaceBits()
	}
	return bits + l.gen.SpaceBits()
}

// StateBits reports the linear-measurement contents only — the message a
// player sends in the public-coin protocols of §4.1 (Proposition 5), where
// the PRG seed and verification points are shared randomness.
func (l *L0Sampler) StateBits() int64 {
	var bits int64
	for _, lv := range l.levels {
		bits += lv.StateBits()
	}
	return bits
}

// ExportState serializes all levels' linear measurements — the concrete
// one-round message of Proposition 5. len(result)*8 == StateBits().
func (l *L0Sampler) ExportState() []byte {
	var out []byte
	for _, lv := range l.levels {
		out = append(out, lv.ExportState()...)
	}
	return out
}

// ImportState replaces the sampler's measurements with exported ones. The
// receiver must be a same-seed, same-configuration instance. The memoized
// sample is invalidated on every path, accepted or rejected.
func (l *L0Sampler) ImportState(data []byte) error {
	l.queryValid = false
	per := int(l.levels[0].StateBits() / 8)
	if len(data) != per*len(l.levels) {
		return fmt.Errorf("core: state is %d bytes, want %d", len(data), per*len(l.levels))
	}
	for k, lv := range l.levels {
		if err := lv.ImportState(data[k*per : (k+1)*per]); err != nil {
			return err
		}
	}
	return nil
}

// AppendState writes every level's linear measurements into a codec encoder
// — the framed counterpart of ExportState used by the public wire format,
// the engine checkpoints and the graph sketches.
func (l *L0Sampler) AppendState(e *codec.Encoder) {
	for _, lv := range l.levels {
		lv.AppendState(e)
	}
}

// RestoreState replaces every level's measurements from a codec decoder,
// invalidating the memoized sample and each level's memoized decode.
func (l *L0Sampler) RestoreState(d *codec.Decoder) {
	l.queryValid = false
	for _, lv := range l.levels {
		lv.RestoreState(d)
	}
}
