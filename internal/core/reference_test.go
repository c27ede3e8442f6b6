package core

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/codec"
	"repro/internal/countsketch"
	"repro/internal/norm"
	"repro/internal/stream"
)

// referenceTop is the pre-PR-13 countsketch.Top: one scalar Estimate per key,
// then a sort of all n entries.
func referenceTop(cs *countsketch.Sketch, n, m int) []countsketch.TopEntry {
	entries := make([]countsketch.TopEntry, 0, n)
	for i := 0; i < n; i++ {
		if e := cs.Estimate(uint64(i)); e != 0 {
			entries = append(entries, countsketch.TopEntry{Index: i, Estimate: e})
		}
	}
	sort.Slice(entries, func(a, b int) bool {
		ea, eb := math.Abs(entries[a].Estimate), math.Abs(entries[b].Estimate)
		if ea != eb {
			return ea > eb
		}
		return entries[a].Index < entries[b].Index
	})
	if len(entries) > m {
		entries = entries[:m]
	}
	return entries
}

// referenceSampleAll is a verbatim copy of the pre-PR-13 sampleAll over
// referenceTop, kept as the oracle for the shared-scratch recovery stage. Its
// one departure: ẑ reaches the AMS sketch as a slice in Top's rank order, not
// as a map (whose iteration order made the old s-test nondeterministic).
func referenceSampleAll(s *LpSampler) ([]Sample, Diagnostics) {
	var diag Diagnostics
	r := s.rNorm.UpperEstimate(nil)
	if r == 0 {
		return nil, diag
	}
	p := s.cfg.P
	invP := 1 / p
	threshold := math.Pow(s.cfg.Eps, -invP) * r
	sBound := s.beta * math.Sqrt(float64(s.m)) * r
	var out []Sample
	for _, c := range s.copies {
		if c.guarded {
			diag.Guarded++
			continue
		}
		top := referenceTop(c.cs, s.cfg.N, s.m)
		if len(top) == 0 {
			diag.ThresholdFails++
			continue
		}
		zhat := make([]norm.Entry, 0, len(top))
		for _, e := range top {
			zhat = append(zhat, norm.Entry{Index: uint64(e.Index), Value: e.Estimate})
		}
		if !s.cfg.DisableSTest {
			sEst := c.ams.UpperEstimate(zhat)
			if sEst > sBound {
				diag.STestAborts++
				continue
			}
		}
		best := top[0]
		if math.Abs(best.Estimate) < threshold {
			diag.ThresholdFails++
			continue
		}
		diag.Emitted++
		ti := c.t.Float64(0, uint64(best.Index))
		out = append(out, Sample{
			Index:    best.Index,
			Estimate: best.Estimate * math.Pow(ti, invP),
		})
	}
	return out, diag
}

func checkAgainstReference(t *testing.T, name string, s *LpSampler) {
	t.Helper()
	want, wantDiag := referenceSampleAll(s)
	got := s.SampleAll()
	if gotDiag := s.Diagnostics(); gotDiag != wantDiag {
		t.Fatalf("%s: diagnostics %+v, reference %+v", name, gotDiag, wantDiag)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Estimate) != math.Float64bits(want[i].Estimate) {
			t.Fatalf("%s: sample %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

// TestSampleAllMatchesReference: the recovery stage returns the samples and
// diagnostics of the old per-key decode exactly, for every exponent regime
// and every state a sampler reaches: empty, fed, guarded, s-test disabled,
// merged and restored. MFactor 1 (m = 2) is there for its s-test aborts.
func TestSampleAllMatchesReference(t *testing.T) {
	const n = 1500 // not a multiple of the decode block
	st := stream.ZipfSigned(n, 1.1, 20000, rand.New(rand.NewPCG(91, 92)))
	var seen Diagnostics
	for _, p := range []float64{0.5, 1, 1.5} {
		for _, cfg := range []LpConfig{{}, {DisableSTest: true}, {MFactor: 1}} {
			cfg.P, cfg.N, cfg.Eps, cfg.Delta, cfg.Copies = p, n, 0.25, 0.2, 9
			mk := func() *LpSampler { return NewLpSampler(cfg, rand.New(rand.NewPCG(93, 94))) }

			s := mk()
			checkAgainstReference(t, "zero vector", s)
			st.FeedBatch(512, s)
			checkAgainstReference(t, "fed", s)
			d := s.Diagnostics()
			seen.Emitted += d.Emitted
			seen.STestAborts += d.STestAborts
			seen.ThresholdFails += d.ThresholdFails

			s.copies[2].guarded = true
			s.queryValid = false
			checkAgainstReference(t, "guarded copy", s)
			if s.Diagnostics().Guarded != 1 {
				t.Fatalf("guarded copy not counted: %+v", s.Diagnostics())
			}

			a, b := mk(), mk()
			st[:len(st)/3].FeedBatch(512, a)
			st[len(st)/3:].Feed(b)
			if err := a.Merge(b); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, "merged", a)

			e := codec.NewEncoder(codec.KindLpSampler)
			a.AppendState(e)
			restored := mk()
			restored.SampleAll() // prime the memo; RestoreState must drop it
			dec, err := codec.NewDecoder(e.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			restored.RestoreState(dec)
			checkAgainstReference(t, "restored", restored)
		}
	}
	if seen.Emitted == 0 || seen.STestAborts == 0 || seen.ThresholdFails == 0 {
		t.Fatalf("the sweep missed an outcome: %+v", seen)
	}
}

// TestSampleAllRepeatsExactly: the memo contract in its strong form. A
// sampler made dirty without changing its state (a zero-delta update) re-runs
// recovery and must reproduce samples and diagnostics bit for bit, every
// time; ẑ reaches the s-test in rank order, so nothing in a query depends on
// map iteration order.
func TestSampleAllRepeatsExactly(t *testing.T) {
	const n = 1 << 10
	s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.2}, rand.New(rand.NewPCG(95, 96)))
	stream.ZipfSigned(n, 1.1, 20000, rand.New(rand.NewPCG(97, 98))).FeedBatch(512, s)
	first := append([]Sample(nil), s.SampleAll()...)
	firstDiag := s.Diagnostics()
	for run := 0; run < 100; run++ {
		s.Process(stream.Update{Index: run % n, Delta: 0})
		if s.queryValid {
			t.Fatal("a zero-delta update left the memo valid")
		}
		got := s.SampleAll()
		if s.Diagnostics() != firstDiag || len(got) != len(first) {
			t.Fatalf("run %d: %d samples %+v, first run %d samples %+v",
				run, len(got), s.Diagnostics(), len(first), firstDiag)
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d: sample %d = %+v, first run %+v", run, i, got[i], first[i])
			}
		}
	}
}
