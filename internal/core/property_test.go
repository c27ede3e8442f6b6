package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// TestPropertyL0SamplerNeverLeavesSupport: whatever sparse stream arrives,
// an emitted L0 sample is a support element with its exact value — the
// "never returns an index outside J" half of Theorem 2, which holds with
// probability 1 up to the fingerprint collision event.
func TestPropertyL0SamplerNeverLeavesSupport(t *testing.T) {
	f := func(seed uint64, supRaw uint8) bool {
		rr := rand.New(rand.NewPCG(seed, 31))
		n := 64 + rr.IntN(400)
		sup := int(supRaw) % (n / 2)
		st := stream.SparseVector(n, sup, 1000, rr)
		truth := st.Apply(n)
		s := NewL0Sampler(L0Config{N: n, Delta: 0.25}, rr)
		st.Feed(s)
		out, ok := s.Sample()
		if !ok {
			return true // failure is allowed; wrong output is not
		}
		return truth.Get(out.Index) != 0 && float64(truth.Get(out.Index)) == out.Estimate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyL0MergeEqualsConcatenation: merging same-seed sketches of two
// streams samples identically to one sketch fed both streams.
func TestPropertyL0MergeEqualsConcatenation(t *testing.T) {
	f := func(seed uint64, rawA, rawB []int16) bool {
		const n = 128
		mk := func() *L0Sampler {
			return NewL0Sampler(L0Config{N: n, Delta: 0.25}, rand.New(rand.NewPCG(seed, 37)))
		}
		toStream := func(raw []int16) stream.Stream {
			var st stream.Stream
			for k, v := range raw {
				if v != 0 {
					st = append(st, stream.Update{Index: k % n, Delta: int64(v)})
				}
			}
			return st
		}
		a, b := toStream(rawA), toStream(rawB)
		whole := mk()
		a.Feed(whole)
		b.Feed(whole)
		pa, pb := mk(), mk()
		a.Feed(pa)
		b.Feed(pb)
		if err := pa.Merge(pb); err != nil {
			return false
		}
		wOut, wOK := whole.Sample()
		mOut, mOK := pa.Sample()
		return wOK == mOK && wOut == mOut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLpSamplerEmitsNonzeroEstimates: an emitted sample always
// carries a nonzero estimate whose magnitude cleared the ε^{-1/p}·r
// threshold — by construction, never 0 or NaN.
func TestPropertyLpSamplerEmitsNonzeroEstimates(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rand.New(rand.NewPCG(seed, 41))
		const n = 128
		st := stream.ZipfSigned(n, 0.9, 1000, rr)
		s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3}, rr)
		st.Feed(s)
		for _, out := range s.SampleAll() {
			if out.Estimate == 0 || out.Estimate != out.Estimate /* NaN */ {
				return false
			}
			if out.Index < 0 || out.Index >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertySampleConsistentWithSampleAll: Sample() is exactly the head of
// SampleAll(), whether it answers from the outputs SampleAll resolved or, on
// a dirty same-seed replica, resolves repetitions itself and stops at its
// answer.
func TestPropertySampleConsistentWithSampleAll(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 64
		st := stream.RandomTurnstile(n, 256, 20, rand.New(rand.NewPCG(seed, 44)))
		mk := func() *LpSampler {
			s := NewLpSampler(LpConfig{P: 1.5, N: n, Eps: 0.4, Delta: 0.3}, rand.New(rand.NewPCG(seed, 43)))
			st.Feed(s)
			return s
		}
		s, lazy := mk(), mk()
		all := s.SampleAll()
		one, ok := s.Sample()
		first, firstOK := lazy.Sample()
		if len(all) == 0 {
			return !ok && !firstOK
		}
		return ok && one == all[0] && firstOK && first == all[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDiagnosticsAccountForAllCopies: emitted + aborted + threshold-
// failed + guarded must equal the repetition count after every SampleAll.
func TestPropertyDiagnosticsAccountForAllCopies(t *testing.T) {
	f := func(seed uint64, dense bool) bool {
		rr := rand.New(rand.NewPCG(seed, 47))
		const n = 64
		var st stream.Stream
		if dense {
			st = stream.RandomTurnstile(n, 512, 20, rr)
		} else {
			st = stream.SparseVector(n, 3, 100, rr)
		}
		s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3}, rr)
		st.Feed(s)
		s.SampleAll()
		d := s.Diagnostics()
		if st.Apply(n).L0() == 0 {
			return true // zero vector: SampleAll returns before triage
		}
		return d.Emitted+d.STestAborts+d.ThresholdFails+d.Guarded == s.Copies()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
