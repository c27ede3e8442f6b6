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
	// coordinate) coins (i.i.d. I_k, the default) to the paper's §2.1
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
// T_k with T_k/Modulus ~ 2^k/n — no float division on the update path.
//
// The blocks of coordinate i live at the addresses i·stride + (k-1), which
// differ in the low address bits only, so they are K multiply-adds on one
// composed prefix state read off the generator's window tables. ProcessBatch
// is the one fold; Process buffers single updates for it — see "The L0
// ingestion fast path" in the package documentation.
//
// With NestedLevels the sets are nested as in the paper's original
// formulation (one block per coordinate, dyadic thresholds); the default
// remains independent per-level coins, which Theorem 2's per-level analysis
// admits (see the package documentation).
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
	// PRG-tested levels, so that a coordinate's blocks differ in the low
	// log2(stride) address bits only — the low window of the generator's
	// tables. Nested mode reads the one block at address i.
	stride uint64
	// sampleBase is the first PRG block reserved for Sample's uniform
	// support choices — block sampleBase+k serves recovery level k.
	sampleBase uint64

	// win is the generator's window-table view for this layout, fetched by
	// the first fold; scratch is the batched path's chunk-sized working set,
	// allocated by the first ProcessBatch. Neither exists on a sampler that
	// is only constructed, loaded, merged and queried.
	win     *prng.Windows
	scratch *l0Scratch
	// pending holds the updates Process has taken and the fold not yet seen;
	// every read of the levels flushes it first.
	pending stream.Pending

	// Query-side memoization: Sample's outcome is cached until the next
	// mutation (Process/ProcessBatch/Merge/RestoreState). Per-level decodes
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
	z := SizeL0(cfg)
	s, numLevels := int(z.S), int(z.Levels)
	K := numLevels - 1
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
	return l
}

// L0Size is the shape NewL0Sampler allocates for a config: Levels exact
// S-sparse recoverers. float64 for the reason LpSize gives.
type L0Size struct {
	S, Levels float64
}

// SizeL0 derives the shape from cfg (δ in range): the per-level budget s,
// ⌈4 log₂(1/δ)⌉ and at least 4 unless overridden, and the levels 0..K, K
// being the last level whose inclusion probability 2^K/n is below 1 (levels
// at probability >= 1 would be copies of I_0 = [n]).
func SizeL0(cfg L0Config) L0Size {
	z := L0Size{S: float64(cfg.SOverride), Levels: 1}
	if z.S <= 0 {
		z.S = math.Max(4, math.Ceil(4*math.Log2(1/cfg.Delta)))
	}
	for math.Exp2(z.Levels) < float64(cfg.N) {
		z.Levels++
	}
	return z
}

// Words prices the shape in 64-bit words: 2s syndromes and a fingerprint
// per level.
func (z L0Size) Words() float64 { return z.Levels * (2*z.S + 1) }

// S returns the per-level sparsity budget.
func (l *L0Sampler) S() int { return l.s }

// Levels returns the number of subsampling levels (level 0 plus every level
// with inclusion probability below 1).
func (l *L0Sampler) Levels() int { return len(l.levels) }

// NestedLevels reports whether the sampler uses the nested dyadic level
// assignment.
func (l *L0Sampler) NestedLevels() bool { return l.nested }

// l0Chunk is the number of updates whose membership ProcessBatch resolves
// at a time. It bounds every scratch buffer of the batched path (4.1 KiB in
// all) whatever the batch length: a serving process holds hundreds of
// samplers, so scratch proportional to the frame size is resident memory
// multiplied by that. 128 is where the per-chunk costs — one kernel dispatch
// and one sub-batch fold per level, each sub-batch's ragged tail of up to
// three updates taking the scalar fold — stop showing in the update rate.
const l0Chunk = 128

// l0Scratch is the batched path's working set for one chunk.
type l0Scratch struct {
	prefix [l0Chunk]uint64        // P(i) of each update of the chunk
	blocks [l0Chunk]uint64        // one level's membership blocks
	sub    [l0Chunk]stream.Update // one level's members, in update order
}

// windows returns the generator's tables for this sampler's block layout:
// the low window spans one coordinate's stride in i.i.d. mode and is absent
// in nested mode, so the prefix of address bits above it is the coordinate.
func (l *L0Sampler) windows() *prng.Windows {
	if l.win == nil {
		low := 0
		if !l.nested {
			low = bits.TrailingZeros64(l.stride)
		}
		l.win = l.gen.Windows(low)
	}
	return l.win
}

// Process implements stream.Sink: it buffers the update, and a full buffer
// folds through ProcessBatch. Sample, RecoverLevel, Merge (both sides) and
// AppendState flush the buffer and RestoreState drops it, so every
// observable result is that of an immediate fold.
func (l *L0Sampler) Process(u stream.Update) {
	l.queryValid = false
	l.pending.Add(u, l)
}

// ProcessBatch implements stream.BatchSink, folding the updates Process
// buffered and then the batch. Level 0 consumes the whole batch directly;
// the tested levels take it in chunks of l0Chunk updates, level by level
// within a chunk (see foldMembers). Every level still sees its members in
// stream order and field arithmetic is exact, so every split of a stream
// into batches leaves the same state bit for bit; nothing allocates at
// steady state.
func (l *L0Sampler) ProcessBatch(batch []stream.Update) {
	l.pending.Flush(l)
	if len(batch) == 0 {
		return
	}
	l.queryValid = false
	l.levels[0].ProcessBatch(batch)
	if len(l.levels) == 1 {
		return
	}
	if l.scratch == nil {
		l.scratch = new(l0Scratch)
	}
	for len(batch) > l0Chunk {
		l.foldMembers(batch[:l0Chunk])
		batch = batch[l0Chunk:]
	}
	l.foldMembers(batch)
}

// foldMembers folds one chunk (at most l0Chunk updates) into the tested
// levels 1..K, level-major: the chunk's prefixes are composed once; then,
// per level, one SIMD pass turns them into that level's blocks (i.i.d. mode;
// in nested mode the prefixes are the blocks of every level), one pass
// compares them against the level's threshold, and the members go to the
// level's recoverer as one sub-batch.
func (l *L0Sampler) foldMembers(chunk []stream.Update) {
	win, sc := l.windows(), l.scratch
	prefixes := sc.prefix[:len(chunk)]
	for j, u := range chunk {
		prefixes[j] = win.Prefix(uint64(u.Index))
	}
	blocks := prefixes
	var sel [l0Chunk]uint8 // positions of one level's members within the chunk
	for k := 1; k < len(l.levels); k++ {
		if !l.nested {
			blocks = sc.blocks[:len(chunk)]
			win.BlocksAt(k-1, prefixes, blocks)
		}
		// Branch-free selection: every position is written to the next free
		// slot and the slot is kept only if the block is under the threshold.
		// At the upper levels membership is a coin flip per update, which a
		// branch per update mispredicts half the time.
		thr := l.thresholds[k]
		n := 0
		for j, blk := range blocks {
			sel[n&(l0Chunk-1)] = uint8(j)
			if blk < thr {
				n++
			}
		}
		if n == 0 {
			continue
		}
		sub := sc.sub[:n]
		for t, j := range sel[:n] {
			sub[t] = chunk[j]
		}
		l.levels[k].ProcessBatch(sub)
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
	l.pending.Flush(l)
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
// memoized per level, after folding the updates Process buffered. The
// returned map is owned by the level's recoverer and valid until the next
// mutating call. Distinct levels share no decode state and an empty buffer
// is not written, so concurrent RecoverLevel calls on different k are safe
// once nothing is pending.
func (l *L0Sampler) RecoverLevel(k int) (map[int]int64, bool) {
	l.pending.Flush(l)
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
	l.pending.Flush(l)
	other.pending.Flush(other)
	for k := range l.levels {
		if err := l.levels[k].Merge(other.levels[k]); err != nil {
			return err
		}
	}
	return nil
}

// AppendState writes every level's linear measurements into a codec encoder
// — the public wire format, the engine checkpoints and the one-round message
// of Proposition 5. The updates Process buffered are folded first.
func (l *L0Sampler) AppendState(e *codec.Encoder) {
	l.pending.Flush(l)
	for _, lv := range l.levels {
		lv.AppendState(e)
	}
}

// RestoreState replaces every level's measurements from a codec decoder,
// discarding the updates Process buffered and invalidating the memoized
// sample and each level's memoized decode.
func (l *L0Sampler) RestoreState(d *codec.Decoder) {
	l.queryValid = false
	l.pending.Drop()
	for _, lv := range l.levels {
		lv.RestoreState(d)
	}
}
