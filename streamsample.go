// Package streamsample is the public API of this repository: turnstile-stream
// Lp samplers and their applications, reproducing Jowhari, Sağlam and Tardos,
// "Tight Bounds for Lp Samplers, Finding Duplicates in Streams, and Related
// Problems" (PODS 2011).
//
// # The Sketch interface
//
// Every public type is a Sketch: a linear summary of a vector x ∈ Z^n
// defined by a stream of updates (i, Δ). The interface is the whole
// distributed contract in one place —
//
//	type Sketch interface {
//		Process(Update)            // one turnstile update
//		ProcessBatch([]Update)     // the batched ingestion hot path
//		Merge(Sketch) error        // fold a same-seed replica's state in
//		SpaceBits() int64          // the serialized size, 8 × len(MarshalBinary())
//		encoding.BinaryMarshaler   // serialize: config + seed + state
//		encoding.BinaryUnmarshaler // rebuild in place from those bytes
//	}
//
// Every kind implements it with the same code over its own inner sketch, so
// the contract holds alike for all six; a kind adds only its constructor,
// its query and, for the turnstile kinds, Update(i, delta).
//
// Because the structures are linear, same-seed sketches summarize sums of
// vectors: shard a stream across processes, give every process the same
// WithSeed value, MarshalBinary each shard's sketch, move the bytes, Load
// them anywhere, and Merge — the merged sketch is exactly the sketch of the
// whole stream. Load reconstructs a ready-to-merge sketch from the bytes
// alone (the versioned wire format carries the config block and seed; see
// internal/codec for the layout), and cross-seed or cross-config merges
// fail with the typed sentinels ErrSeedMismatch and ErrConfigMismatch.
//
// # The samplers
//
//   - LpSampler (0 < p < 2): return index i with probability
//     ≈ (1±ε)|x_i|^p/‖x‖_p^p plus an ε-relative-error estimate of x_i, in
//     O(ε^{-max(1,p)} log² n) bits (Theorem 1).
//   - L0Sampler: return a uniformly random element of the support of x with
//     its exact value, in O(log² n) bits (Theorem 2).
//   - DuplicateFinder: given a stream of n+1 letters over [n], return a
//     repeated letter in O(log² n) bits (Theorem 3).
//   - HeavyHitters: return a valid Lp heavy-hitter set in O(φ^{-p} log² n)
//     bits (§4.4), matching the paper's Theorem 9 lower bound.
//   - TwoPassL0Sampler, FpEstimator (extensions.go): the appendix two-pass
//     sampler and the F_p (p > 2) moment application.
//
// Everything is implemented from scratch on the standard library; the
// internal packages expose the substrates (count-sketch, p-stable norm
// estimation, exact sparse recovery, Nisan's PRG, k-wise independent
// hashing) for users who need the building blocks.
package streamsample

import (
	"cmp"
	"encoding"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/duplicates"
	"repro/internal/heavyhitters"
	"repro/internal/stream"
)

// Update is one turnstile update: x[Index] += Delta.
type Update = stream.Update

// Sketch is the common contract of every public type: a serializable,
// remotely mergeable linear summary of a turnstile stream. See the package
// documentation for the distributed pattern it enables.
type Sketch interface {
	// Process applies one update.
	Process(u Update)
	// ProcessBatch applies a batch through the sketch's batched hot path;
	// the resulting state matches repeated Process calls exactly.
	ProcessBatch(batch []Update)
	// Merge folds another sketch's state in, so the receiver summarizes the
	// sum of the two underlying vectors. The argument must be the same
	// concrete type, built with the same parameters and WithSeed value;
	// anything else fails with ErrNilMerge, ErrConfigMismatch or
	// ErrSeedMismatch (match with errors.Is).
	Merge(other Sketch) error
	// SpaceBits is the serialized size, 8 × len(MarshalBinary()): the one
	// space accounting of the repository. Theorems 1–3 state their bounds in
	// bits of sketch state, and §4's lower bounds in bits of the message
	// Alice sends; both are these bytes. The seed counts as the one 64-bit
	// construction seed on the wire, because Load rebuilds every hash
	// coefficient, Nisan block and scaling factor from it (in §4's
	// public-coin model shared randomness is free anyway). Like
	// MarshalBinary, it first folds the updates Process buffered.
	SpaceBits() int64
	// MarshalBinary serializes the sketch — config block, construction
	// seed and linear state — into the versioned wire format that Load and
	// UnmarshalBinary read back. Readers hold reconstructed sketches to a
	// ~1 GiB derived-state budget as a hostile-bytes safety valve, so
	// deliberately extreme configurations (far beyond any polylog-space
	// use of the paper's structures) do not round-trip.
	encoding.BinaryMarshaler
	// UnmarshalBinary rebuilds the receiver in place from MarshalBinary
	// bytes of the same sketch kind.
	encoding.BinaryUnmarshaler
}

// Merge error sentinels, re-exported from the wire-format package so
// internal and public layers report the same identities. Every Merge in the
// repository wraps one of these; dispatch with errors.Is.
var (
	// ErrNilMerge is returned by Merge when handed a nil sketch.
	ErrNilMerge = codec.ErrNilMerge
	// ErrSeedMismatch is returned when the two sketches were built from
	// different seeds — linear merging requires same-seed replicas.
	ErrSeedMismatch = codec.ErrSeedMismatch
	// ErrConfigMismatch is returned when the two sketches differ in
	// concrete type, shape or construction parameters.
	ErrConfigMismatch = codec.ErrConfigMismatch
)

// config is a sketch's config block: its kind and the construction
// parameters the wire format records. A kind reads the fields its row lists.
type config struct {
	kind       codec.Kind
	n          uint64
	p, phi     float64
	eps, delta float64
	copies     uint64 // Lp repetition override (0: Theorem 1's count)
	sparsity   uint64 // L0 per-level recovery budget override (0: Theorem 2's)
	nested     bool   // L0 nested levels (§2.1)
	samples    uint64 // FpEstimator sampler count
	seed       uint64
	seeded     bool
}

func (c config) rng() *rand.Rand { return rand.New(rand.NewPCG(c.seed, c.seed^0x9E3779B97F4A7C15)) }

func (c config) lp() core.LpConfig {
	return core.LpConfig{P: c.p, N: int(c.n), Eps: c.eps, Delta: c.delta, Copies: int(c.copies)}
}

func (c config) l0() core.L0Config {
	return core.L0Config{N: int(c.n), Delta: c.delta, SOverride: int(c.sparsity), NestedLevels: c.nested}
}

func (c config) hh() heavyhitters.Config { return heavyhitters.Config{P: c.p, Phi: c.phi, N: int(c.n)} }

// Option configures a sampler at construction time.
type Option func(*config)

// WithSeed makes the sampler deterministic. Two samplers of the same type
// and dimension built with the same seed share all randomness — a
// requirement for Merge.
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed; c.seeded = true }
}

// WithEps sets the relative-error parameter ε (LpSampler only; default 0.25).
func WithEps(eps float64) Option { return func(c *config) { c.eps = eps } }

// WithDelta sets the failure probability δ (default 0.2).
func WithDelta(delta float64) Option { return func(c *config) { c.delta = delta } }

// WithCopies overrides the repetition count of the Lp sampler.
func WithCopies(v int) Option { return func(c *config) { c.copies = uint64(max(v, 0)) } }

// WithSparsity overrides the per-level recovery budget of the L0 sampler.
func WithSparsity(s int) Option { return func(c *config) { c.sparsity = uint64(max(s, 0)) } }

// WithNestedLevels switches the L0 sampler to the §2.1 nested dyadic level
// assignment (I_1 ⊆ I_2 ⊆ ...): one PRG walk per update decides every
// subsampling level at once, instead of independent per-level coins.
func WithNestedLevels() Option { return func(c *config) { c.nested = true } }

// newConfig is the config block of a kind built over dimension n with the
// given options.
func newConfig(kind codec.Kind, n int, opts []Option) config {
	c := config{kind: kind, n: uint64(n)}
	for _, f := range opts {
		f(&c)
	}
	c.canonical()
	return c
}

// canonical materializes the defaults, here rather than in the inner
// constructors, keeping the recorded config block canonical: out-of-range ε
// and δ fall back to 0.25 and 0.2, and a sketch built without WithSeed draws
// one random seed up front and derives all randomness from it, so every
// sketch — seeded or not — serializes to bytes that reconstruct it exactly.
func (c *config) canonical() {
	if !(c.eps > 0 && c.eps < 1) {
		c.eps = 0.25
	}
	if !(c.delta > 0 && c.delta < 1) {
		c.delta = 0.2
	}
	if !c.seeded {
		c.seed = rand.Uint64()
		c.seeded = true
	}
}

// Spec names a zero-state sketch of a served kind ("l0", "lp" or "hh") by
// its construction parameters: the create-request body and meta.json of the
// sketchd serving tier, and what the command-line tools build from their
// flags. Zero P, Phi, Eps and Delta select 1, 0.1, 0.25 and 0.2; an Eps or
// Delta outside (0,1) falls back to its default, as the Options do.
type Spec struct {
	// Kind is "l0", "lp" or "hh".
	Kind string `json:"kind"`
	// N is the vector dimension.
	N int `json:"n"`
	// P is the norm exponent (lp, hh).
	P float64 `json:"p,omitempty"`
	// Phi is the heavy-hitter threshold (hh).
	Phi float64 `json:"phi,omitempty"`
	// Eps, Delta tune accuracy/failure probability.
	Eps   float64 `json:"eps,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// Seed is the shared construction seed; all replicas of one sketch must
	// use the same one.
	Seed uint64 `json:"seed"`
}

// Check holds the spec to its kind's row — the ranges and word budget Load
// holds a config block to — without allocating the sketch.
func (sp Spec) Check() error {
	_, err := sp.block()
	return err
}

// Build constructs the zero-state sketch the spec describes, once Check
// passes.
func (sp Spec) Build() (Sketch, error) {
	c, err := sp.block()
	if err != nil {
		return nil, err
	}
	return construct(c), nil
}

// block is the canonical config block the spec names, held to its row.
func (sp Spec) block() (config, error) {
	for kind, r := range kinds {
		if r.spec != "" && r.spec == sp.Kind {
			c := config{kind: kind, n: uint64(sp.N), p: cmp.Or(sp.P, 1), phi: cmp.Or(sp.Phi, 0.1),
				eps: sp.Eps, delta: sp.Delta, seed: sp.Seed, seeded: true}
			c.canonical()
			return c, r.validate(c)
		}
	}
	var served []string
	for _, r := range kinds {
		if r.spec != "" {
			served = append(served, r.spec)
		}
	}
	slices.Sort(served)
	return config{}, fmt.Errorf("streamsample: unknown sketch kind %q (want one of %s): %w",
		sp.Kind, strings.Join(served, ", "), codec.ErrBadKind)
}

// Answer is every kind's query result in one shape (the JSON of sketchd's
// /sample): the L0 samplers' index and exact value, the Lp sampler's index
// and estimate of x_i, the duplicate finder's letter, the heavy-hitter
// report or the F_p estimate. Ok is false when the query failed; a
// heavy-hitter report always answers, possibly with the empty set.
type Answer struct {
	Ok           bool    `json:"ok"`
	Index        int     `json:"index,omitempty"`
	Value        int64   `json:"value,omitempty"`
	Estimate     float64 `json:"estimate,omitempty"`
	HeavyHitters []int   `json:"heavy_hitters,omitempty"`
}

// Query runs the read API of the sketch's kind — Sample, Find, Report or
// Estimate — and returns its Answer. A Sketch implemented outside this
// package answers the zero Answer.
func Query(s Sketch) Answer {
	w, ok := s.(wired)
	if !ok {
		return Answer{}
	}
	c, _ := w.wire()
	return kinds[c.kind].answer(s)
}

// innerSketch is what a kind's inner sketch provides: its linear state on
// the wire, its update paths and its Merge with a same-kind replica.
type innerSketch[I any] interface {
	linearState
	stream.BatchSink
	Merge(other I) error
}

// base is what every public type embeds: the config block the sketch was
// built from and the inner sketch holding its linear state. It implements
// the Sketch contract once for every kind.
type base[I innerSketch[I]] struct {
	cfg   config
	inner I
}

func newBase[I innerSketch[I]](c config, inner I) base[I] { return base[I]{c, inner} }

func (b *base[I]) wire() (config, linearState) { return b.cfg, b.inner }

// MarshalBinary implements encoding.BinaryMarshaler: the header, the config
// block of the sketch's kind, the sealing fingerprint and the linear state.
func (b *base[I]) MarshalBinary() ([]byte, error) { return encode(b.cfg, b.inner) }

// SpaceBits is the serialized size, 8 × len(MarshalBinary()).
func (b *base[I]) SpaceBits() int64 {
	data, _ := encode(b.cfg, b.inner)
	return 8 * int64(len(data))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler: MarshalBinary bytes
// of the receiver's kind — the kind whose inner sketch has the receiver's
// type — rebuild the receiver in place. On error it is left unchanged.
func (b *base[I]) UnmarshalBinary(data []byte) error {
	s, err := decode(data)
	if err != nil {
		return err
	}
	c, state := s.wire()
	inner, ok := state.(I)
	if !ok {
		return fmt.Errorf("streamsample: bytes hold a %v, not the receiver's kind: %w", c.kind, codec.ErrBadKind)
	}
	*b = newBase(c, inner)
	return nil
}

// Process implements stream.Sink: it applies one update.
func (b *base[I]) Process(u Update) { b.inner.Process(u) }

// ProcessBatch implements the stream.BatchSink fast path: the inner
// sketch's batched fold, leaving exactly the state of repeated Process calls.
func (b *base[I]) ProcessBatch(batch []Update) { b.inner.ProcessBatch(batch) }

// Merge adds another sketch's state, so the receiver summarizes the sum of
// the two vectors. The argument must be the receiver's own type: nil and
// typed-nil sketches of any kind fail with ErrNilMerge, other kinds and Sketches from
// outside this package with ErrConfigMismatch. The inner sketch then holds
// the two to the same parameters (ErrConfigMismatch) and the same WithSeed
// value (ErrSeedMismatch).
func (b *base[I]) Merge(other Sketch) error {
	w, ok := other.(wired)
	switch {
	case other == nil || ok && reflect.ValueOf(w).IsNil():
		return fmt.Errorf("streamsample: %w", ErrNilMerge)
	case !ok:
		return fmt.Errorf("streamsample: merging %T into a %v: %w", other, b.cfg.kind, ErrConfigMismatch)
	}
	c, state := w.wire()
	o, ok := state.(I)
	if !ok {
		return fmt.Errorf("streamsample: merging a %v into a %v: %w", c.kind, b.cfg.kind, ErrConfigMismatch)
	}
	return b.inner.Merge(o)
}

// ---------------------------------------------------------------------------
// Lp sampler
// ---------------------------------------------------------------------------

// LpSampler samples coordinates proportionally to |x_i|^p.
type LpSampler struct{ base[*core.LpSampler] }

// Compile-time check: every public type satisfies the Sketch contract.
var _ Sketch = (*LpSampler)(nil)

// NewLpSampler creates a sampler for p in (0,2) over vectors of dimension n.
func NewLpSampler(p float64, n int, opts ...Option) *LpSampler {
	c := newConfig(codec.KindLpSampler, n, opts)
	c.p = p
	return construct(c).(*LpSampler)
}

// Update applies x[i] += delta.
func (s *LpSampler) Update(i int, delta int64) {
	s.inner.Process(stream.Update{Index: i, Delta: delta})
}

// Sample returns an index distributed ≈ proportionally to |x_i|^p, with a
// (1±ε)-accurate estimate of x_i. ok is false when the sampler fails
// (probability ≤ δ; always for the zero vector).
func (s *LpSampler) Sample() (index int, estimate float64, ok bool) {
	out, ok := s.inner.Sample()
	return out.Index, out.Estimate, ok
}

// ---------------------------------------------------------------------------
// L0 sampler
// ---------------------------------------------------------------------------

// L0Sampler samples uniformly from the support of x.
type L0Sampler struct{ base[*core.L0Sampler] }

var _ Sketch = (*L0Sampler)(nil)

// NewL0Sampler creates the sampler for dimension n.
func NewL0Sampler(n int, opts ...Option) *L0Sampler {
	return construct(newConfig(codec.KindL0Sampler, n, opts)).(*L0Sampler)
}

// Update applies x[i] += delta.
func (s *L0Sampler) Update(i int, delta int64) {
	s.inner.Process(stream.Update{Index: i, Delta: delta})
}

// Sample returns a uniform support element and its exact value x_i.
func (s *L0Sampler) Sample() (index int, value int64, ok bool) {
	out, ok := s.inner.Sample()
	return out.Index, int64(out.Estimate), ok
}

// ---------------------------------------------------------------------------
// Duplicates
// ---------------------------------------------------------------------------

// DuplicateFinder finds a repeated letter in a stream of n+1 letters over
// the alphabet {0, ..., n-1} (Theorem 3). Process and ProcessBatch take the
// letters-as-updates encoding; Merge compensates the pigeonhole prefix each
// constructor fed, so the merged finder behaves as if it had seen the
// concatenated stream.
type DuplicateFinder struct{ base[*duplicates.Finder] }

var _ Sketch = (*DuplicateFinder)(nil)

// NewDuplicateFinder creates the finder for alphabet size n.
func NewDuplicateFinder(n int, opts ...Option) *DuplicateFinder {
	return construct(newConfig(codec.KindDuplicateFinder, n, opts)).(*DuplicateFinder)
}

// Observe consumes the next letter of the stream.
func (d *DuplicateFinder) Observe(letter int) { d.inner.ProcessItem(letter) }

// Find returns a letter that appeared at least twice. ok is false with
// probability at most δ; a returned letter is wrong only with low
// probability.
func (d *DuplicateFinder) Find() (letter int, ok bool) {
	res := d.inner.Find()
	if res.Kind != duplicates.Duplicate {
		return -1, false
	}
	return res.Index, true
}

// ---------------------------------------------------------------------------
// Heavy hitters
// ---------------------------------------------------------------------------

// HeavyHitters maintains an Lp heavy-hitters sketch: Report returns a set
// containing every i with |x_i| ≥ φ‖x‖_p and no i with |x_i| ≤ (φ/2)‖x‖_p
// (with high probability).
type HeavyHitters struct{ base[*heavyhitters.Sketch] }

var _ Sketch = (*HeavyHitters)(nil)

// NewHeavyHitters creates the sketch for norm exponent p in (0,2] and
// threshold φ in (0,1).
func NewHeavyHitters(p, phi float64, n int, opts ...Option) *HeavyHitters {
	c := newConfig(codec.KindHeavyHitters, n, opts)
	c.p, c.phi = p, phi
	return construct(c).(*HeavyHitters)
}

// Update applies x[i] += delta.
func (h *HeavyHitters) Update(i int, delta int64) {
	h.inner.Process(stream.Update{Index: i, Delta: delta})
}

// Report returns the heavy-hitter set.
func (h *HeavyHitters) Report() []int { return h.inner.HeavyHitters() }
