package streamsample

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
)

// sketchCase builds one seeded instance of every public kind, feeds it a
// deterministic stream, and knows how to compare query behavior between two
// instances of the kind.
type sketchCase struct {
	name  string
	build func(seed uint64) Sketch
	feed  func(s Sketch)
	// query runs the kind's read API and returns a comparable digest.
	query func(s Sketch) any
	// wire is the FNV-64a digest of MarshalBinary after build(wireSeed) and
	// feed (see TestWireGoldens).
	wire uint64
}

func feedTurnstile(s Sketch, seed uint64, n, length int) {
	r := rand.New(rand.NewPCG(seed, seed+1))
	batch := make([]Update, 0, 64)
	for i := 0; i < length; i++ {
		d := r.Int64N(40) - 20
		if d == 0 {
			d = 1
		}
		batch = append(batch, Update{Index: r.IntN(n), Delta: d})
		if len(batch) == 64 {
			s.ProcessBatch(batch)
			batch = batch[:0]
		}
	}
	s.ProcessBatch(batch)
}

func sketchCases() []sketchCase {
	const n = 96
	return []sketchCase{
		{
			name:  "LpSampler",
			wire:  0xde6a06ee40fb176a,
			build: func(seed uint64) Sketch { return NewLpSampler(1.2, n, WithSeed(seed), WithEps(0.3), WithDelta(0.2)) },
			feed:  func(s Sketch) { feedTurnstile(s, 3, n, 500) },
			query: func(s Sketch) any {
				i, est, ok := s.(*LpSampler).Sample()
				return [3]any{i, est, ok}
			},
		},
		{
			name:  "L0Sampler",
			wire:  0x19a189fe77e19a66,
			build: func(seed uint64) Sketch { return NewL0Sampler(n, WithSeed(seed), WithDelta(0.2)) },
			feed:  func(s Sketch) { feedTurnstile(s, 4, n, 400) },
			query: func(s Sketch) any {
				i, v, ok := s.(*L0Sampler).Sample()
				return [3]any{i, v, ok}
			},
		},
		{
			name:  "L0SamplerNested",
			wire:  0xd5fab214e0b9975d,
			build: func(seed uint64) Sketch { return NewL0Sampler(n, WithSeed(seed), WithNestedLevels(), WithSparsity(6)) },
			feed:  func(s Sketch) { feedTurnstile(s, 5, n, 400) },
			query: func(s Sketch) any {
				i, v, ok := s.(*L0Sampler).Sample()
				return [3]any{i, v, ok}
			},
		},
		{
			name:  "DuplicateFinder",
			wire:  0x325135224074baf7,
			build: func(seed uint64) Sketch { return NewDuplicateFinder(n, WithSeed(seed)) },
			feed: func(s Sketch) {
				d := s.(*DuplicateFinder)
				for i := 0; i < n; i++ {
					d.Observe(i % (n - 3)) // letters repeat near the end
				}
				d.Observe(7)
			},
			query: func(s Sketch) any {
				l, ok := s.(*DuplicateFinder).Find()
				return [2]any{l, ok}
			},
		},
		{
			name:  "HeavyHitters",
			wire:  0xeb6e29554980027b,
			build: func(seed uint64) Sketch { return NewHeavyHitters(1, 0.2, n, WithSeed(seed)) },
			feed: func(s Sketch) {
				feedTurnstile(s, 6, n, 300)
				h := s.(*HeavyHitters)
				h.Update(11, 50_000)
				h.Update(42, 30_000)
			},
			query: func(s Sketch) any {
				rep := s.(*HeavyHitters).Report()
				out := make([]int, len(rep))
				copy(out, rep)
				return out
			},
		},
		{
			name:  "TwoPassL0Sampler",
			wire:  0x85451fc460483957,
			build: func(seed uint64) Sketch { return NewTwoPassL0Sampler(n, WithSeed(seed)) },
			feed: func(s Sketch) {
				tp := s.(*TwoPassL0Sampler)
				feedTurnstile(tp, 8, n, 300)
				tp.EndPass1()
				feedTurnstile(tp, 8, n, 300) // identical replay, pass 2
			},
			query: func(s Sketch) any {
				i, v, ok := s.(*TwoPassL0Sampler).Sample()
				return [3]any{i, v, ok}
			},
		},
		{
			name:  "FpEstimator",
			wire:  0xef0844ca0da0c5f6,
			build: func(seed uint64) Sketch { return NewFpEstimator(3, n, 8, WithSeed(seed)) },
			feed:  func(s Sketch) { feedTurnstile(s, 9, n, 300) },
			query: func(s Sketch) any {
				est, ok := s.(*FpEstimator).Estimate()
				return [2]any{est, ok}
			},
		},
	}
}

func digestEqual(t *testing.T, a, b any) bool {
	t.Helper()
	switch av := a.(type) {
	case [3]any:
		bv := b.([3]any)
		return av == bv
	case [2]any:
		bv := b.([2]any)
		return av == bv
	case []int:
		bv := b.([]int)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
		return true
	default:
		t.Fatalf("unhandled digest type %T", a)
		return false
	}
}

// TestRoundTripBehaviorPinned is the acceptance property: for every public
// sketch kind, Marshal → Load yields a sketch whose behavior is identical
// to the never-serialized original under a fixed seed — same query outputs,
// same outputs again after both absorb the same extra updates, and
// Merge(zero replica) is a no-op on the bytes.
func TestRoundTripBehaviorPinned(t *testing.T) {
	for _, tc := range sketchCases() {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 12345
			original := tc.build(seed)
			tc.feed(original)

			data, err := original.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			kept := append([]byte(nil), data...)

			loaded, err := Load(data)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := tc.query(original), tc.query(loaded); !digestEqual(t, want, got) {
				t.Fatalf("loaded sketch answers %v, original answers %v", got, want)
			}

			// Merge with a same-seed zero sketch must not change behavior or
			// bytes (the zero replica's linear state is all zeros).
			zero := tc.build(seed)
			if tc.name == "TwoPassL0Sampler" {
				// Same-pass requirement: bring the zero replica to pass 2 with
				// the same committed level by replaying the same pass-1 data.
				zp := zero.(*TwoPassL0Sampler)
				feedTurnstile(zp, 8, 96, 300)
				zp.EndPass1()
				// Its pass-1 estimator state is nonzero, but its pass-2
				// recoverer is zero; merge changes est fingerprints only,
				// which Sample never reads after EndPass1.
			}
			if err := loaded.Merge(zero); err != nil {
				t.Fatalf("Merge(zero replica): %v", err)
			}
			// Byte-identity of Merge(zero) holds for the plainly linear
			// kinds. TwoPassL0Sampler merges nonzero pass-1 state by
			// construction, and DuplicateFinder's merge re-adds the
			// pigeonhole prefix compensation in float cells ((x+y)-y is
			// mathematically x but not bitwise); both are covered by the
			// behavioral equality checks instead.
			if tc.name != "TwoPassL0Sampler" && tc.name != "DuplicateFinder" {
				reser, err := loaded.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(kept, reser) {
					t.Fatal("Marshal -> Load -> Merge(zero) -> Marshal is not byte-identical")
				}
			}
			if want, got := tc.query(original), tc.query(loaded); !digestEqual(t, want, got) {
				t.Fatalf("after zero-merge, loaded answers %v, original answers %v", got, want)
			}

			// Divergence check: both absorb the same extra updates and must
			// stay in lockstep (proves the restored randomness is live, not
			// just the cached answers).
			if tp, ok := loaded.(*TwoPassL0Sampler); ok {
				_ = tp // two-pass replay protocol covered by the query above
			} else {
				extra := []Update{{Index: 1, Delta: 3}, {Index: 17, Delta: -2}, {Index: 33, Delta: 9}}
				original.ProcessBatch(extra)
				loaded.ProcessBatch(extra)
				if want, got := tc.query(original), tc.query(loaded); !digestEqual(t, want, got) {
					t.Fatalf("after extra updates, loaded answers %v, original answers %v", got, want)
				}
			}
		})
	}
}

// TestUnmarshalBinaryRebuildsInPlace pins the encoding.BinaryUnmarshaler
// path: a zero-value receiver rebuilt from bytes behaves like the original.
func TestUnmarshalBinaryRebuildsInPlace(t *testing.T) {
	orig := NewL0Sampler(128, WithSeed(9))
	for i := 0; i < 40; i++ {
		orig.Update(i*3%128, int64(i+1))
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var re L0Sampler
	if err := re.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	oi, ov, ook := orig.Sample()
	ri, rv, rok := re.Sample()
	if oi != ri || ov != rv || ook != rok {
		t.Fatalf("rebuilt sampler answers (%d,%d,%v), original (%d,%d,%v)", ri, rv, rok, oi, ov, ook)
	}
	// And it must be mergeable with the original's lineage.
	other := NewL0Sampler(128, WithSeed(9))
	other.Update(99, 5)
	if err := re.Merge(other); err != nil {
		t.Fatalf("rebuilt sampler rejects same-seed merge: %v", err)
	}
}

// TestUnmarshalKindMismatch pins the typed error when bytes of one kind hit
// a receiver of another.
func TestUnmarshalKindMismatch(t *testing.T) {
	l0 := NewL0Sampler(64, WithSeed(1))
	data, err := l0.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var lp LpSampler
	if err := lp.UnmarshalBinary(data); !errors.Is(err, codec.ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

// TestLoadRejectsCorruptHeaderAndTruncatedPayload is the codec-rejection
// half of the round-trip property, run across every kind.
func TestLoadRejectsCorruptHeaderAndTruncatedPayload(t *testing.T) {
	for _, tc := range sketchCases() {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.build(7)
			tc.feed(s)
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}

			// Bad magic.
			bad := append([]byte(nil), data...)
			bad[0] ^= 0xFF
			if _, err := Load(bad); !errors.Is(err, codec.ErrBadMagic) {
				t.Fatalf("bad magic: %v, want ErrBadMagic", err)
			}

			// Bad version.
			bad = append([]byte(nil), data...)
			bad[4] ^= 0x7F
			if _, err := Load(bad); !errors.Is(err, codec.ErrBadVersion) {
				t.Fatalf("bad version: %v, want ErrBadVersion", err)
			}

			// Unknown kind: flip the kind field high. The fingerprint does
			// not cover a rescue here — the kind dispatch fails first.
			bad = append([]byte(nil), data...)
			bad[7] = 0xFF
			if _, err := Load(bad); !errors.Is(err, codec.ErrBadKind) {
				t.Fatalf("unknown kind: %v, want ErrBadKind", err)
			}

			// Corrupt config block: any flip between the header and the
			// fingerprint must be caught by the seal.
			bad = append([]byte(nil), data...)
			bad[12] ^= 0x01 // first config word
			if _, err := Load(bad); !errors.Is(err, codec.ErrBadFingerprint) {
				t.Fatalf("corrupt config: %v, want ErrBadFingerprint", err)
			}

			// Truncated payload.
			if _, err := Load(data[:len(data)-5]); !errors.Is(err, codec.ErrTruncated) {
				t.Fatalf("truncated payload: %v, want ErrTruncated", err)
			}

			// Trailing garbage.
			if _, err := Load(append(append([]byte(nil), data...), 0xEE)); !errors.Is(err, codec.ErrTrailingData) {
				t.Fatalf("trailing data: %v, want ErrTrailingData", err)
			}
		})
	}
}

// TestMergeErrorSentinels pins the errors.Is contract of the public Merge
// across nil, foreign-type, cross-config and cross-seed arguments.
func TestMergeErrorSentinels(t *testing.T) {
	base := NewL0Sampler(64, WithSeed(1))

	if err := base.Merge(nil); !errors.Is(err, ErrNilMerge) {
		t.Fatalf("Merge(nil) = %v, want ErrNilMerge", err)
	}
	var typedNil *L0Sampler
	if err := base.Merge(typedNil); !errors.Is(err, ErrNilMerge) {
		t.Fatalf("Merge(typed nil) = %v, want ErrNilMerge", err)
	}
	if err := base.Merge(NewLpSampler(1, 64, WithSeed(1))); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("cross-type merge = %v, want ErrConfigMismatch", err)
	}
	if err := base.Merge(NewL0Sampler(128, WithSeed(1))); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("cross-dimension merge = %v, want ErrConfigMismatch", err)
	}
	if err := base.Merge(NewL0Sampler(64, WithSeed(2))); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("cross-seed merge = %v, want ErrSeedMismatch", err)
	}

	lp := NewLpSampler(1, 64, WithSeed(3))
	if err := lp.Merge(NewLpSampler(1, 64, WithSeed(4))); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("Lp cross-seed merge = %v, want ErrSeedMismatch", err)
	}
	if err := lp.Merge(NewLpSampler(1.5, 64, WithSeed(3))); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("Lp cross-p merge = %v, want ErrConfigMismatch", err)
	}

	hh := NewHeavyHitters(1, 0.2, 64, WithSeed(5))
	if err := hh.Merge(NewHeavyHitters(1, 0.3, 64, WithSeed(5))); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("HH cross-phi merge = %v, want ErrConfigMismatch", err)
	}
	if err := hh.Merge(NewHeavyHitters(1, 0.2, 64, WithSeed(6))); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("HH cross-seed merge = %v, want ErrSeedMismatch", err)
	}

	df := NewDuplicateFinder(64, WithSeed(7))
	if err := df.Merge(NewDuplicateFinder(32, WithSeed(7))); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("DF cross-n merge = %v, want ErrConfigMismatch", err)
	}
	if err := df.Merge(NewDuplicateFinder(64, WithSeed(8))); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("DF cross-seed merge = %v, want ErrSeedMismatch", err)
	}

	fp := NewFpEstimator(3, 64, 2, WithSeed(9))
	if err := fp.Merge(NewFpEstimator(3, 64, 3, WithSeed(9))); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("Fp cross-samples merge = %v, want ErrConfigMismatch", err)
	}
	if err := fp.Merge(NewFpEstimator(3, 64, 2, WithSeed(10))); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("Fp cross-seed merge = %v, want ErrSeedMismatch", err)
	}

	tp := NewTwoPassL0Sampler(64, WithSeed(11))
	tp2 := NewTwoPassL0Sampler(64, WithSeed(11))
	tp2.EndPass1()
	if err := tp.Merge(tp2); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("two-pass cross-pass merge = %v, want ErrConfigMismatch", err)
	}
	if err := tp.Merge(NewTwoPassL0Sampler(64, WithSeed(12))); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("two-pass cross-seed merge = %v, want ErrSeedMismatch", err)
	}

	// Every kind: nil, a typed nil of its own type, every other kind, a
	// typed nil of every other kind and a Sketch implemented outside the
	// package.
	all := []struct {
		sk       Sketch
		typedNil Sketch
	}{
		{NewLpSampler(1, 64, WithSeed(13)), (*LpSampler)(nil)},
		{NewL0Sampler(64, WithSeed(13)), (*L0Sampler)(nil)},
		{NewDuplicateFinder(64, WithSeed(13)), (*DuplicateFinder)(nil)},
		{NewHeavyHitters(1, 0.2, 64, WithSeed(13)), (*HeavyHitters)(nil)},
		{NewTwoPassL0Sampler(64, WithSeed(13)), (*TwoPassL0Sampler)(nil)},
		{NewFpEstimator(3, 64, 2, WithSeed(13)), (*FpEstimator)(nil)},
	}
	for i, k := range all {
		if err := k.sk.Merge(nil); !errors.Is(err, ErrNilMerge) {
			t.Fatalf("%T.Merge(nil) = %v, want ErrNilMerge", k.sk, err)
		}
		if err := k.sk.Merge(k.typedNil); !errors.Is(err, ErrNilMerge) {
			t.Fatalf("%T.Merge(typed nil) = %v, want ErrNilMerge", k.sk, err)
		}
		if err := k.sk.Merge(foreignSketch{k.sk}); !errors.Is(err, ErrConfigMismatch) {
			t.Fatalf("%T.Merge(foreign Sketch) = %v, want ErrConfigMismatch", k.sk, err)
		}
		for j, other := range all {
			if i == j {
				continue
			}
			if err := k.sk.Merge(other.sk); !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("%T.Merge(%T) = %v, want ErrConfigMismatch", k.sk, other.sk, err)
			}
			// A typed nil is nil before it is another kind.
			if err := k.sk.Merge(other.typedNil); !errors.Is(err, ErrNilMerge) {
				t.Fatalf("%T.Merge(typed nil %T) = %v, want ErrNilMerge", k.sk, other.typedNil, err)
			}
		}
	}
}

// foreignSketch is a Sketch implemented outside the package's kinds.
type foreignSketch struct{ Sketch }

// TestUnseededSketchesStillSerialize pins the materialized-seed behavior: a
// sketch built without WithSeed draws a concrete random seed and must
// round-trip through bytes like any other.
func TestUnseededSketchesStillSerialize(t *testing.T) {
	s := NewL0Sampler(64)
	s.Update(5, 3)
	s.Update(20, -1)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	li, lv, lok := loaded.(*L0Sampler).Sample()
	oi, ov, ook := s.Sample()
	if li != oi || lv != ov || lok != ook {
		t.Fatalf("unseeded round-trip answers (%d,%d,%v), original (%d,%d,%v)", li, lv, lok, oi, ov, ook)
	}
	// The loaded sketch is a same-seed replica: merging must work.
	if err := s.Merge(loaded); err != nil {
		t.Fatalf("merge with own round-trip: %v", err)
	}
}

// TestLoadRejectsAbsurdConfig pins the ErrBadConfig guard: a syntactically
// valid encoding (correct magic and fingerprint) whose config would force
// absurd allocations must be rejected, not attempted.
func TestLoadRejectsAbsurdConfig(t *testing.T) {
	e := codec.NewEncoder(codec.KindL0Sampler)
	e.U64(1 << 50) // dimension beyond maxWireDim
	e.F64(0.2)
	e.U64(0)
	e.Bool(false)
	e.U64(1)
	e.SealHeader()
	if _, err := Load(e.Bytes()); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("absurd dimension: %v, want ErrBadConfig", err)
	}

	e = codec.NewEncoder(codec.KindHeavyHitters)
	e.U64(64)
	e.F64(2)    // p = 2
	e.F64(1e-9) // phi forcing m ~ 10^19
	e.U64(1)
	e.SealHeader()
	if _, err := Load(e.Bytes()); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("absurd phi: %v, want ErrBadConfig", err)
	}

	// p arbitrarily close to 1 blows up the scaling-factor independence
	// k = 10·⌈1/|p-1|⌉ even though every per-field bound looks tame.
	e = codec.NewEncoder(codec.KindLpSampler)
	e.U64(4)
	e.F64(1 + 1e-12)
	e.F64(0.5)
	e.F64(0.5)
	e.U64(1)
	e.U64(1)
	e.SealHeader()
	if _, err := Load(e.Bytes()); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("absurd k: %v, want ErrBadConfig", err)
	}

	// Repetitions × rows × cells product beyond the word budget, with each
	// factor individually under its own cap.
	e = codec.NewEncoder(codec.KindLpSampler)
	e.U64(1 << 30)
	e.F64(0.5)
	e.F64(1e-4) // m ≈ 16·ε^{-... } fine for p<1, but copies cap is the guard
	e.F64(0.5)
	e.U64(1 << 19) // copies: under maxWireKnob, product far over budget
	e.U64(1)
	e.SealHeader()
	if _, err := Load(e.Bytes()); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("absurd copies×rows×m: %v, want ErrBadConfig", err)
	}

	// HeavyHitters with per-field-plausible phi whose rows × 6m cells blow
	// the uniform word budget.
	e = codec.NewEncoder(codec.KindHeavyHitters)
	e.U64(1<<31 - 1)
	e.F64(2)
	e.F64(0.0017) // m ≈ 4.2M: cells ≈ 880M words
	e.U64(1)
	e.SealHeader()
	if _, err := Load(e.Bytes()); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("absurd HH cells: %v, want ErrBadConfig", err)
	}

	// L0 with a sparsity override beyond the knob cap (within the cap, the
	// worst case — 31 levels × 2·maxWireKnob syndromes — stays under the
	// word budget, so the knob cap is the binding guard for this kind).
	e = codec.NewEncoder(codec.KindL0Sampler)
	e.U64(1 << 20)
	e.F64(0.2)
	e.U64(1 << 24) // sBudget far over maxWireKnob
	e.Bool(false)
	e.U64(1)
	e.SealHeader()
	if _, err := Load(e.Bytes()); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("absurd L0 sparsity: %v, want ErrBadConfig", err)
	}
}

// TestRoundTripLargeLegitConfig pins that the hostile-bytes word budget
// does not reject realistically large constructible sketches.
func TestRoundTripLargeLegitConfig(t *testing.T) {
	s := NewLpSampler(1.5, 1<<20, WithSeed(8), WithEps(0.05), WithDelta(0.1))
	s.Update(3, 17)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(data); err != nil {
		t.Fatalf("large legit config rejected: %v", err)
	}
}

// TestLoadRejectsCorruptTwoPassMarker pins the payload-level guard: the
// pass marker is not covered by the header fingerprint, so a corrupted
// marker must fail the decode instead of restoring inconsistent state.
func TestLoadRejectsCorruptTwoPassMarker(t *testing.T) {
	tp := NewTwoPassL0Sampler(64, WithSeed(3))
	tp.Update(5, 2)
	data, err := tp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 8 header + 3 config words + 8 fingerprint, then the pass
	// marker as the first payload word.
	const passOff = 8 + 3*8 + 8
	bad := append([]byte(nil), data...)
	bad[passOff] = 0xFF
	if _, err := Load(bad); !errors.Is(err, codec.ErrBadConfig) {
		t.Fatalf("corrupt pass marker: %v, want ErrBadConfig", err)
	}
}

// TestTwoPassTinyDeltaTerminates: the two-pass sampler's recovery budget
// grows with log(1/δ), and for δ in (4/2^63, 4/2^62] the constructor's shift
// loop used to run forever — so a config block anyone can seal hung Load.
func TestTwoPassTinyDeltaTerminates(t *testing.T) {
	s := NewTwoPassL0Sampler(64, WithSeed(1), WithDelta(6e-19))
	s.Update(5, 2)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(data); err != nil {
		t.Fatalf("Load of a tiny-δ two-pass sampler: %v", err)
	}
}
