// Package duplicates implements §3 of the paper: finding a repeated letter
// in a stream over the alphabet [n].
//
// Three algorithms, one per stream-length regime, all built on the first:
//
//   - Finder (Theorem 3): length n+1 — a duplicate always exists by
//     pigeonhole. Feed x_i = (#occurrences of i) - 1 to an L1 sampler with
//     ε = δ = 1/2; since Σx_i = 1, a sample with positive estimate is a
//     duplicate with high probability. O(log² n · log(1/δ)) bits.
//   - ShortFinder (Theorem 4): length n-s — runs exact 5s-sparse recovery
//     (Lemma 5) beside a Finder. If recovery returns the vector, the answer
//     is exact (including NO-DUPLICATE with probability 1 on duplicate-free
//     streams); otherwise ‖x‖⁺₁/‖x‖₁ > 2/5 and the Finder's sampler finds a
//     positive coordinate. O(s log n + log² n log(1/δ)) bits.
//   - LongFinder (§3 end): length n+s — samples 4⌈n/s⌉ positions and checks
//     recurrence, O((n/s) log n) bits; automatically switches to a Finder
//     when n/s ≥ log n (Σx_i = s ≥ 1 there, so positive coordinates exist),
//     realizing the O(min{log² n, (n/s) log n}) bound.
//
// The generalized form (remark after Theorem 4) is exposed as
// PositiveFinder: given any update stream, find an index with x_i > 0. A
// Finder is a PositiveFinder fed the pigeonhole prefix.
package duplicates

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/reservoir"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// Kind classifies an outcome.
type Kind int

const (
	// Fail means the algorithm could not produce an answer (probability δ).
	Fail Kind = iota
	// Duplicate means Index is a letter that appears at least twice (or a
	// coordinate with x_i > 0 for PositiveFinder).
	Duplicate
	// NoDuplicate certifies the stream has no repeated letter (ShortFinder
	// only; exact, never wrong).
	NoDuplicate
)

// Result is the outcome of a finder.
type Result struct {
	Kind  Kind
	Index int
	// Value is the recovered/estimated multiplicity excess x_i where
	// available (exact for the sparse-recovery path of ShortFinder).
	Value float64
}

// PositiveFinder finds an index with x_i > 0 in a general update stream via
// L1 sampling — the engine behind both Theorem 3 and Theorem 4. The L1
// sampler runs with ε = 1/2 relative error per the theorems; samples with
// non-positive estimates are rejected, and the repetition count folds the
// rejection probability into δ.
type PositiveFinder struct {
	sampler *core.LpSampler
}

// NewPositiveFinder builds the engine for dimension n and overall failure
// probability delta.
func NewPositiveFinder(n int, delta float64, r *rand.Rand) *PositiveFinder {
	return &PositiveFinder{sampler: core.NewLpSampler(SamplerConfig(n, delta), r)}
}

// SamplerConfig is the L1 sampler a finder for dimension n and failure
// probability delta runs, sized by core.SizeLp: ε = δ = 1/2 per repetition,
// and max(4, ⌈8·ln(1/δ)⌉) repetitions (Theorem 3: per repetition,
// P(positive duplicate output) >= 1/4 for streams with sum(x) = 1, composed
// of the sampler's own success rate and the >1/2 positive mass). The count
// is capped at 2^31, far past any constructible sampler, so no δ overflows
// it.
func SamplerConfig(n int, delta float64) core.LpConfig {
	if delta <= 0 || delta >= 1 {
		delta = 0.25
	}
	copies := math.Max(4, math.Ceil(math.Log(1/delta)*8))
	return core.LpConfig{P: 1, N: n, Eps: 0.5, Delta: 0.5, Copies: int(math.Min(copies, 1<<31))}
}

// Process implements stream.Sink.
func (f *PositiveFinder) Process(u stream.Update) { f.sampler.Process(u) }

// ProcessBatch implements stream.BatchSink via the sampler's batched path.
func (f *PositiveFinder) ProcessBatch(batch []stream.Update) { f.sampler.ProcessBatch(batch) }

// Merge adds another finder's sampler state (sketch linearity); both must be
// same-seed replicas.
func (f *PositiveFinder) Merge(other *PositiveFinder) error {
	if other == nil {
		return fmt.Errorf("duplicates: %w", codec.ErrNilMerge)
	}
	return f.sampler.Merge(other.sampler)
}

// AppendState writes the underlying sampler's linear state into a codec
// encoder.
func (f *PositiveFinder) AppendState(e *codec.Encoder) { f.sampler.AppendState(e) }

// RestoreState replaces the underlying sampler's linear state from a codec
// decoder.
func (f *PositiveFinder) RestoreState(d *codec.Decoder) { f.sampler.RestoreState(d) }

// Find returns the first sampled coordinate with positive estimate,
// resolving the sampler's repetitions only until one yields it.
func (f *PositiveFinder) Find() Result {
	if s, ok := f.sampler.First(positive); ok {
		return Result{Kind: Duplicate, Index: s.Index, Value: s.Estimate}
	}
	return Result{Kind: Fail, Index: -1}
}

func positive(s core.Sample) bool { return s.Estimate > 0 }

// itemsToUpdates converts letters to +1 updates in a reusable buffer — the
// shared shim between the item-stream APIs of §3 and the batched update
// sinks underneath.
func itemsToUpdates(letters []int, buf *[]stream.Update) []stream.Update {
	b := (*buf)[:0]
	if cap(b) < len(letters) {
		b = make([]stream.Update, 0, len(letters))
	}
	for _, it := range letters {
		b = append(b, stream.Update{Index: it, Delta: 1})
	}
	*buf = b
	return b
}

// prefixBlock is how many letters feedLetters sends per ProcessBatch call.
const prefixBlock = 2048

// feedLetters applies (i, delta) for every letter i in [n] to each sink's
// batched path, prefixBlock letters at a time through the reusable *buf: the
// pigeonhole prefix (delta = -1) the constructors feed and its compensation
// (+1) after a merge, without an n-entry slice.
func feedLetters(n int, delta int64, buf *[]stream.Update, sinks ...stream.BatchSink) {
	b := *buf
	if block := min(n, prefixBlock); cap(b) < block {
		b = make([]stream.Update, 0, block)
	}
	for lo := 0; lo < n; lo += prefixBlock {
		b = b[:0]
		for i := lo; i < min(lo+prefixBlock, n); i++ {
			b = append(b, stream.Update{Index: i, Delta: delta})
		}
		for _, s := range sinks {
			s.ProcessBatch(b)
		}
	}
	*buf = b[:0]
}

// Finder is the Theorem 3 algorithm for item streams of length n+1 over [n]:
// the PositiveFinder over x_i = (#occurrences of i) - 1.
type Finder struct {
	*PositiveFinder
	n   int
	buf []stream.Update
}

// NewFinder creates the finder. The constructor feeds the (i, -1) prefix for
// every letter, so x_i counts occurrences minus one from the start.
func NewFinder(n int, delta float64, r *rand.Rand) *Finder {
	f := NewFinderForRestore(n, delta, r)
	feedLetters(n, -1, &f.buf, f)
	return f
}

// NewFinderForRestore builds a same-seed Finder without feeding the O(n)
// pigeonhole prefix — for restore paths that immediately replace the
// sampler's linear state with serialized measurements, which already
// contain the prefix. Using it without a RestoreState is wrong: the
// invariant x_i = occurrences - 1 would not hold.
func NewFinderForRestore(n int, delta float64, r *rand.Rand) *Finder {
	return &Finder{PositiveFinder: NewPositiveFinder(n, delta, r), n: n}
}

// ProcessItem consumes one letter of the stream.
func (f *Finder) ProcessItem(letter int) {
	f.Process(stream.Update{Index: letter, Delta: 1})
}

// ProcessItems consumes a batch of letters through the sampler's batched
// hot path, reusing an internal conversion buffer.
func (f *Finder) ProcessItems(letters []int) {
	f.ProcessBatch(itemsToUpdates(letters, &f.buf))
}

// Merge combines another same-seed replica's observations. Each replica's
// constructor fed the (i, -1) pigeonhole prefix, so a plain linear merge
// would count that prefix twice; Merge compensates by re-adding +1 per
// letter, leaving x_i = (total occurrences across replicas) - 1 — exactly
// the state of one finder that saw the whole stream.
func (f *Finder) Merge(other *Finder) error {
	if other == nil {
		return fmt.Errorf("duplicates: %w", codec.ErrNilMerge)
	}
	if f.n != other.n {
		return fmt.Errorf("duplicates: merging finders of different alphabet sizes: %w", codec.ErrConfigMismatch)
	}
	if err := f.PositiveFinder.Merge(other.PositiveFinder); err != nil {
		return err
	}
	feedLetters(f.n, 1, &f.buf, f)
	return nil
}

// ShortFinder is the Theorem 4 algorithm for streams of length n-s: the
// Theorem 3 Finder beside exact 5s-sparse recovery of the same vector.
type ShortFinder struct {
	s      int
	rec    *sparse.Recoverer
	finder *Finder
}

// NewShortFinder creates the finder for streams of length n-s.
func NewShortFinder(n, s int, delta float64, r *rand.Rand) *ShortFinder {
	s = max(s, 0)
	sf := &ShortFinder{s: s, rec: sparse.New(n, max(5*s, 1), r)}
	// One pass over the (i, -1) prefix feeds both the recoverer and the
	// Finder.
	sf.finder = NewFinderForRestore(n, delta, r)
	feedLetters(n, -1, &sf.finder.buf, sf.rec, sf.finder)
	return sf
}

// ProcessItem consumes one letter.
func (sf *ShortFinder) ProcessItem(letter int) { sf.Process(stream.Update{Index: letter, Delta: 1}) }

// Process implements stream.Sink on the letters-as-updates encoding, so a
// ShortFinder can sit behind the ingestion engine like the Theorem 3
// finder.
func (sf *ShortFinder) Process(u stream.Update) {
	sf.rec.Process(u)
	sf.finder.Process(u)
}

// ProcessBatch implements stream.BatchSink: both the 5s-sparse recoverer
// (transposed syndrome kernel) and the L1 sampler consume the batch through
// their batched paths.
func (sf *ShortFinder) ProcessBatch(batch []stream.Update) {
	sf.rec.ProcessBatch(batch)
	sf.finder.ProcessBatch(batch)
}

// ProcessItems consumes a batch of letters through both batched paths.
func (sf *ShortFinder) ProcessItems(letters []int) {
	sf.ProcessBatch(itemsToUpdates(letters, &sf.finder.buf))
}

// Merge combines another same-seed replica's observations. Both replicas'
// constructors fed the (i, -1) pigeonhole prefix to the recoverer and the
// Finder, so a plain linear merge counts that prefix twice; the Finder's
// Merge compensates its half and Merge re-adds +1 per letter to the
// recoverer. Validation runs before any mutation.
func (sf *ShortFinder) Merge(other *ShortFinder) error {
	if other == nil {
		return fmt.Errorf("duplicates: %w", codec.ErrNilMerge)
	}
	if sf.finder.n != other.finder.n || sf.s != other.s {
		return fmt.Errorf("duplicates: merging short finders of different shapes: %w", codec.ErrConfigMismatch)
	}
	if !sf.rec.Compatible(other.rec) {
		return fmt.Errorf("duplicates: %w", codec.ErrSeedMismatch)
	}
	if err := sf.finder.Merge(other.finder); err != nil {
		return err
	}
	if err := sf.rec.Merge(other.rec); err != nil {
		return err
	}
	feedLetters(sf.finder.n, 1, &sf.finder.buf, sf.rec)
	return nil
}

// Find resolves the stream: exact answer when x is 5s-sparse (including the
// certain NO-DUPLICATE on duplicate-free streams), else the sampler's
// positive coordinate, else Fail.
func (sf *ShortFinder) Find() Result {
	if rec, ok := sf.rec.Recover(); ok {
		for i, v := range rec {
			if v > 0 {
				return Result{Kind: Duplicate, Index: i, Value: float64(v)}
			}
		}
		return Result{Kind: NoDuplicate, Index: -1}
	}
	return sf.finder.Find()
}

// AppendState writes the recoverer and sampler state into a codec encoder.
func (sf *ShortFinder) AppendState(e *codec.Encoder) {
	sf.rec.AppendState(e)
	sf.finder.AppendState(e)
}

// RestoreState replaces the recoverer and sampler state from a codec
// decoder.
func (sf *ShortFinder) RestoreState(d *codec.Decoder) {
	sf.rec.RestoreState(d)
	sf.finder.RestoreState(d)
}

// LongFinder handles streams of length n+s (§3 end). In sampler mode it is
// the Theorem 3 Finder: feeding occurrences-minus-one leaves sum(x) = s >= 1
// for length n+s, so positive coordinates exist and the sampler finds one.
type LongFinder struct {
	finder *Finder          // sampler mode
	items  *reservoir.Items // position-sampling mode
}

// NewLongFinder picks the cheaper algorithm: position sampling when
// n/s < log n, the L1 sampler otherwise. Force the choice with forceSampler
// (0 = auto, 1 = sampler, 2 = position sampling) for the E6 crossover
// experiment.
func NewLongFinder(n, s int, delta float64, force int, r *rand.Rand) *LongFinder {
	s = max(s, 1)
	useSampler := float64(n)/float64(s) >= math.Log2(float64(n))
	switch force {
	case 1:
		useSampler = true
	case 2:
		useSampler = false
	}
	if useSampler {
		return &LongFinder{finder: NewFinder(n, delta, r)}
	}
	return &LongFinder{items: reservoir.NewItems(4*int(math.Ceil(float64(n)/float64(s))), n+s, r)}
}

// UsesSampler reports which algorithm was selected.
func (lf *LongFinder) UsesSampler() bool { return lf.finder != nil }

// ProcessItem consumes one letter.
func (lf *LongFinder) ProcessItem(letter int) {
	if lf.finder != nil {
		lf.finder.ProcessItem(letter)
		return
	}
	lf.items.ProcessItem(letter)
}

// ProcessItems consumes a batch of letters; in sampler mode the batch flows
// through the L1 sampler's batched path, in position-sampling mode the
// reservoir consumes items one by one (its per-item work is O(1) already).
func (lf *LongFinder) ProcessItems(letters []int) {
	if lf.finder != nil {
		lf.finder.ProcessItems(letters)
		return
	}
	for _, it := range letters {
		lf.items.ProcessItem(it)
	}
}

// Find reports a duplicate or Fail.
func (lf *LongFinder) Find() Result {
	if lf.finder != nil {
		return lf.finder.Find()
	}
	if d, ok := lf.items.Duplicate(); ok {
		return Result{Kind: Duplicate, Index: d}
	}
	return Result{Kind: Fail, Index: -1}
}

// SpaceBits reports the state of whichever algorithm runs: the sampler's
// serialized linear state, or the reservoir's remembered letters and
// positions, which have no wire form.
func (lf *LongFinder) SpaceBits() int64 {
	if lf.finder != nil {
		return codec.PayloadBits(lf.finder)
	}
	return lf.items.SpaceBits()
}
