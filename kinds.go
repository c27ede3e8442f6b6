package streamsample

import (
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/duplicates"
	"repro/internal/heavyhitters"
	"repro/internal/moments"
)

// The kind table: one row per sketch kind (codec.Kind) holds its config block
// in wire order, the ranges and word budget the block is held to, its
// constructor and its query as an Answer. MarshalBinary, UnmarshalBinary, Load
// and Spec are driven by the row, so a new kind is one row.

// Bounds on config blocks: anyone can seal a hostile header, so each row
// prices the derived state with the allocating package's own sizing function
// and rejects configs beyond maxWireWords (~1 GiB of 64-bit words) — a sketch
// that large is a hostile or nonsensical config, not a summary.
const (
	maxWireDim   = 1<<31 - 1 // vector dimension / alphabet size (fits int everywhere)
	maxWireKnob  = 1 << 20   // copies / sparsity overrides
	maxWireReps  = 1 << 8    // FpEstimator sampler count (each is a full L1 sampler)
	maxWireWords = 1 << 27   // total derived sketch words across repetitions
)

// linearState is a sketch's payload: what its config block does not rebuild.
type linearState interface {
	AppendState(e *codec.Encoder)
	RestoreState(d *codec.Decoder)
}

// wired is a sketch as its row builds it: its config block and linear state.
type wired interface {
	Sketch
	wire() (config, linearState)
}

// kindRow is one sketch kind. fields lists the config block in wire order as
// pointers into c, typed by word: *uint64 travels as is, *float64 as its
// IEEE-754 bits, *bool as a 0/1 flag.
type kindRow struct {
	spec   string // the kind's name in a Spec; "" for kinds sketchd does not serve
	fields func(c *config) []any
	check  func(c config) bool                  // the kind's parameter ranges (n is checked for every kind)
	words  func(c config) float64               // derived state in 64-bit words; nil when check bounds it
	build  func(c config, restoring bool) wired // restoring: skip work the payload overwrites
	answer func(s Sketch) Answer
}

var kinds = map[codec.Kind]*kindRow{
	codec.KindLpSampler: {
		spec:   "lp",
		fields: func(c *config) []any { return []any{&c.n, &c.p, &c.eps, &c.delta, &c.copies, &c.seed} },
		check: func(c config) bool {
			return c.p > 0 && c.p < 2 && unitOpen(c.eps) && unitOpen(c.delta) && c.copies <= maxWireKnob
		},
		words: func(c config) float64 { return core.SizeLp(c.lp()).Words() },
		build: func(c config, _ bool) wired { return &LpSampler{newBase(c, core.NewLpSampler(c.lp(), c.rng()))} },
		answer: func(s Sketch) Answer {
			i, est, ok := s.(*LpSampler).Sample()
			return Answer{Ok: ok, Index: i, Estimate: est}
		},
	},
	codec.KindL0Sampler: {
		spec:   "l0",
		fields: func(c *config) []any { return []any{&c.n, &c.delta, &c.sparsity, &c.nested, &c.seed} },
		check:  func(c config) bool { return unitOpen(c.delta) && c.sparsity <= maxWireKnob },
		words:  func(c config) float64 { return core.SizeL0(c.l0()).Words() },
		build:  func(c config, _ bool) wired { return &L0Sampler{newBase(c, core.NewL0Sampler(c.l0(), c.rng()))} },
		answer: func(s Sketch) Answer {
			i, v, ok := s.(*L0Sampler).Sample()
			return Answer{Ok: ok, Index: i, Value: v}
		},
	},
	codec.KindDuplicateFinder: {
		fields: func(c *config) []any { return []any{&c.n, &c.delta, &c.seed} },
		check:  func(c config) bool { return unitOpen(c.delta) },
		words:  func(c config) float64 { return core.SizeLp(duplicates.SamplerConfig(int(c.n), c.delta)).Words() },
		build: func(c config, restoring bool) wired {
			newFinder := duplicates.NewFinder
			if restoring { // the payload holds the O(n) pigeonhole prefix NewFinder feeds
				newFinder = duplicates.NewFinderForRestore
			}
			return &DuplicateFinder{newBase(c, newFinder(int(c.n), c.delta, c.rng()))}
		},
		answer: func(s Sketch) Answer {
			l, ok := s.(*DuplicateFinder).Find()
			return Answer{Ok: ok, Index: l}
		},
	},
	codec.KindHeavyHitters: {
		spec:   "hh",
		fields: func(c *config) []any { return []any{&c.n, &c.p, &c.phi, &c.seed} },
		check:  func(c config) bool { return c.p > 0 && c.p <= 2 && unitOpen(c.phi) },
		words:  func(c config) float64 { return heavyhitters.SizeOf(c.hh()).Words() },
		build:  func(c config, _ bool) wired { return &HeavyHitters{newBase(c, heavyhitters.New(c.hh(), c.rng()))} },
		answer: func(s Sketch) Answer { return Answer{Ok: true, HeavyHitters: s.(*HeavyHitters).Report()} },
	},
	// No word budget: the dimension cap bounds the level tester at 33 levels
	// × 12 fingerprints and core caps the recovery budget at 4·62.
	codec.KindTwoPassL0Sampler: {
		fields: func(c *config) []any { return []any{&c.n, &c.delta, &c.seed} },
		check:  func(c config) bool { return unitOpen(c.delta) },
		build: func(c config, _ bool) wired {
			return &TwoPassL0Sampler{newBase(c, core.NewTwoPassL0Sampler(int(c.n), c.delta, c.rng()))}
		},
		answer: func(s Sketch) Answer {
			i, v, ok := s.(*TwoPassL0Sampler).Sample()
			return Answer{Ok: ok, Index: i, Value: v}
		},
	},
	codec.KindFpEstimator: {
		fields: func(c *config) []any { return []any{&c.n, &c.p, &c.samples, &c.seed} },
		check: func(c config) bool {
			return c.p > 2 && c.p <= math.MaxFloat64 && c.samples >= 1 && c.samples <= maxWireReps
		},
		words: func(c config) float64 {
			return float64(c.samples) * core.SizeLp(moments.SamplerConfig(int(c.n))).Words()
		},
		build: func(c config, _ bool) wired {
			return &FpEstimator{newBase(c, moments.NewFp(c.p, int(c.n), int(c.samples), c.rng()))}
		},
		answer: func(s Sketch) Answer {
			est, ok := s.(*FpEstimator).Estimate()
			return Answer{Ok: ok, Estimate: est}
		},
	},
}

func unitOpen(v float64) bool { return v > 0 && v < 1 }

// validate holds a config block to its row: the dimension and the kind's
// ranges, then the word budget (NaN-safe: a config it cannot price fails).
func (r *kindRow) validate(c config) error {
	if c.n < 1 || c.n > maxWireDim || !r.check(c) || (r.words != nil && !(r.words(c) <= maxWireWords)) {
		return fmt.Errorf("streamsample: %v config block out of range or over budget: %w", c.kind, codec.ErrBadConfig)
	}
	return nil
}

// construct builds a sketch from a canonical config block.
func construct(c config) wired { return kinds[c.kind].build(c, false) }

// encode writes the header, config block, sealing fingerprint and linear state.
func encode(c config, state linearState) ([]byte, error) {
	e := codec.NewEncoder(c.kind)
	for _, v := range kinds[c.kind].fields(&c) {
		switch v := v.(type) {
		case *uint64:
			e.U64(*v)
		case *float64:
			e.F64(*v)
		case *bool:
			e.Bool(*v)
		}
	}
	e.SealHeader()
	state.AppendState(e)
	return e.Bytes(), nil
}

// decode reverses encode: the config block and seed rebuild a same-seed
// replica through the row, whose linear state the payload then replaces.
func decode(data []byte) (wired, error) {
	d, err := codec.NewDecoder(data)
	if err != nil {
		return nil, fmt.Errorf("streamsample: %w", err)
	}
	r, ok := kinds[d.Kind()]
	if !ok {
		return nil, fmt.Errorf("streamsample: unknown sketch kind %v: %w", d.Kind(), codec.ErrBadKind)
	}
	c := config{kind: d.Kind(), seeded: true}
	for _, v := range r.fields(&c) {
		switch v := v.(type) {
		case *uint64:
			*v = d.U64()
		case *float64:
			*v = d.F64()
		case *bool:
			*v = d.Bool()
		}
	}
	if err := d.VerifyHeader(); err != nil {
		return nil, fmt.Errorf("streamsample: %w", err)
	}
	if err := r.validate(c); err != nil {
		return nil, err
	}
	s := r.build(c, true)
	_, state := s.wire()
	state.RestoreState(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("streamsample: %w", err)
	}
	return s, nil
}

// Load reconstructs a ready-to-merge sketch from MarshalBinary bytes alone:
// the config block and seed rebuild the sketch's shape and randomness, the
// payload restores its linear state. The concrete type matches the sketch
// kind recorded in the bytes; type-switch or merge into a same-kind sketch
// as needed. Corrupt input fails with the codec sentinels (ErrBadMagic,
// ErrBadVersion, ErrBadKind, ErrBadFingerprint, ErrBadConfig, ErrTruncated,
// ErrTrailingData under errors.Is).
func Load(data []byte) (Sketch, error) { return decode(data) }
