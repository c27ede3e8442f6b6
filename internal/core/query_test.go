package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// TestL0SampleDirtyTracking pins the query memoization contract: repeated
// Sample calls on an unchanged sketch return the identical cached result;
// any mutation invalidates the cache and the next query reflects the new
// vector.
func TestL0SampleDirtyTracking(t *testing.T) {
	r := rand.New(rand.NewPCG(41, 42))
	const n = 1 << 10
	s := NewL0Sampler(L0Config{N: n, Delta: 0.2}, r)
	st := stream.SparseVector(n, 32, 100, r)
	st.Feed(s)

	first, ok := s.Sample()
	if !ok {
		t.Fatal("sample failed on 32-sparse vector")
	}
	// Sample → Sample: cache hit, bit-identical result.
	for i := 0; i < 5; i++ {
		again, ok2 := s.Sample()
		if !ok2 || again != first {
			t.Fatalf("repeated Sample diverged: %+v vs %+v (ok=%v)", again, first, ok2)
		}
	}
	// Sample → Add → Sample: the mutation must be visible. Deleting the
	// sampled coordinate forces a re-decode whose result cannot contain it.
	s.Process(stream.Update{Index: first.Index, Delta: -int64(first.Estimate)})
	second, ok := s.Sample()
	if !ok {
		t.Fatal("sample failed after deletion")
	}
	if second.Index == first.Index {
		t.Fatalf("Sample returned deleted coordinate %d — stale cache", first.Index)
	}
	// Re-inserting restores the original vector, and the fresh decode must
	// reproduce the original sample (the PRG choice is deterministic).
	s.Process(stream.Update{Index: first.Index, Delta: int64(first.Estimate)})
	third, ok := s.Sample()
	if !ok || third != first {
		t.Fatalf("restored vector sampled %+v, want %+v", third, first)
	}
}

// TestL0SampleCacheInvalidatedByBatchAndMerge: ProcessBatch and Merge are
// mutations too — each must drop the cached sample.
func TestL0SampleCacheInvalidatedByBatchAndMerge(t *testing.T) {
	const n = 1 << 9
	mk := func() *L0Sampler {
		return NewL0Sampler(L0Config{N: n, Delta: 0.2}, rand.New(rand.NewPCG(51, 52)))
	}
	a := mk()
	a.ProcessBatch([]stream.Update{{Index: 7, Delta: 3}})
	out, ok := a.Sample()
	if !ok || out.Index != 7 {
		t.Fatalf("1-sparse sample got %+v ok=%v", out, ok)
	}
	// Batch-deleting the only coordinate must flip the outcome to failure.
	a.ProcessBatch([]stream.Update{{Index: 7, Delta: -3}})
	if _, ok := a.Sample(); ok {
		t.Fatal("Sample succeeded on the zero vector — stale cache after ProcessBatch")
	}
	// Merging new mass in must also invalidate.
	b := mk()
	b.ProcessBatch([]stream.Update{{Index: 11, Delta: 2}})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	out, ok = a.Sample()
	if !ok || out.Index != 11 || out.Estimate != 2 {
		t.Fatalf("post-merge sample got %+v ok=%v, want index 11 value 2", out, ok)
	}
}

// TestLpSampleAllMemoized: repeated SampleAll on an unchanged Lp sampler
// returns identical outputs and diagnostics; a mutation invalidates.
func TestLpSampleAllMemoized(t *testing.T) {
	r := rand.New(rand.NewPCG(61, 62))
	const n = 1 << 10
	s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3}, r)
	st := stream.RandomTurnstile(n, 5000, 50, rand.New(rand.NewPCG(63, 64)))
	st.FeedBatch(512, s)

	first := s.SampleAll()
	diag := s.Diagnostics()
	for i := 0; i < 3; i++ {
		again := s.SampleAll()
		if len(again) != len(first) {
			t.Fatalf("repeated SampleAll diverged: %d vs %d outputs", len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("output %d diverged: %+v vs %+v", j, again[j], first[j])
			}
		}
		if s.Diagnostics() != diag {
			t.Fatalf("diagnostics diverged: %+v vs %+v", s.Diagnostics(), diag)
		}
	}
	// A mutation drops the cache; the sampler must re-run recovery (observed
	// through the diagnostics being recomputed rather than replayed).
	s.Process(stream.Update{Index: 1, Delta: 1})
	_ = s.SampleAll()
	d2 := s.Diagnostics()
	if d2.Emitted+d2.STestAborts+d2.ThresholdFails+d2.Guarded != s.Copies() {
		t.Fatalf("post-mutation diagnostics inconsistent: %+v over %d copies", d2, s.Copies())
	}
}

// TestRecoverLevelMatchesSampleLevels: RecoverLevel exposes exactly the
// per-level decodes Sample consumes — level 0 is the full vector.
func TestRecoverLevelMatchesSampleLevels(t *testing.T) {
	r := rand.New(rand.NewPCG(71, 72))
	const n = 1 << 10
	s := NewL0Sampler(L0Config{N: n, Delta: 0.2}, r)
	want := map[int]int64{3: 5, 100: -2, 999: 40}
	for i, v := range want {
		s.Process(stream.Update{Index: i, Delta: v})
	}
	rec, ok := s.RecoverLevel(0)
	if !ok || len(rec) != len(want) {
		t.Fatalf("level-0 decode got %v ok=%v", rec, ok)
	}
	for i, v := range want {
		if rec[i] != v {
			t.Errorf("rec[%d] = %d, want %d", i, rec[i], v)
		}
	}
}

// firstEmitting is the index of the first repetition whose recovery stage
// emits, found by the reference decode of each repetition on its own, or
// len(s.copies) if none emits. It reads s's state and leaves its recovery
// cursor alone.
func firstEmitting(s *LpSampler) int {
	for k := range s.copies {
		one := &LpSampler{cfg: s.cfg, m: s.m, beta: s.beta, rNorm: s.rNorm, copies: s.copies[k : k+1]}
		if out, _ := referenceSampleAll(one); len(out) > 0 {
			return k
		}
	}
	return len(s.copies)
}

func resolvedCount(d Diagnostics) int {
	return d.Emitted + d.STestAborts + d.ThresholdFails + d.Guarded
}

// TestLpSampleIsLazy pins the recovery cursor. On a dirty state Sample
// resolves exactly the repetitions up to and including the first that emits
// (all of them when none does), read from Diagnostics, and answers what the
// reference decode of every repetition answers first. SampleAll then
// continues from the cursor to the outputs and Diagnostics of a fresh
// same-seed sampler's SampleAll. An update between two queries resets the
// cursor, whether it moves the state or not.
func TestLpSampleIsLazy(t *testing.T) {
	const n, copies = 1 << 10, 9
	lazy, late := 0, 0
	for seed := uint64(0); seed < 9; seed++ {
		for _, cfg := range []LpConfig{{P: 0.5}, {P: 1}, {P: 1.5}, {P: 1, MFactor: 1}} {
			cfg.N, cfg.Eps, cfg.Delta, cfg.Copies = n, 0.25, 0.2, copies
			st := stream.ZipfSigned(n, 1.1, 1500, rand.New(rand.NewPCG(seed, 102)))
			mk := func() *LpSampler {
				s := NewLpSampler(cfg, rand.New(rand.NewPCG(seed, 101)))
				st.FeedBatch(512, s)
				if seed%3 == 0 {
					s.copies[0].guarded = true // the answer comes later
				}
				return s
			}
			name := fmt.Sprintf("seed %d, %+v", seed, cfg)

			s, fresh := mk(), mk()
			first := firstEmitting(s)
			want := min(first+1, copies)
			if want < copies {
				lazy++
			} else {
				late++
			}
			ref, _ := referenceSampleAll(s)
			out, ok := s.Sample()
			if got := resolvedCount(s.Diagnostics()); got != want {
				t.Fatalf("%s: Sample resolved %d repetitions (%+v), first emit at %d", name, got, s.Diagnostics(), first)
			}
			if ok != (len(ref) > 0) || ok && out != ref[0] {
				t.Fatalf("%s: Sample %+v %v, reference %v", name, out, ok, ref)
			}

			all, freshAll := s.SampleAll(), fresh.SampleAll()
			if !reflect.DeepEqual(all, freshAll) || s.Diagnostics() != fresh.Diagnostics() {
				t.Fatalf("%s: Sample then SampleAll %v %+v, fresh SampleAll %v %+v",
					name, all, s.Diagnostics(), freshAll, fresh.Diagnostics())
			}

			s.Process(stream.Update{Index: 1, Delta: 0})
			if again, _ := s.Sample(); again != out || resolvedCount(s.Diagnostics()) != want {
				t.Fatalf("%s: after a zero-delta update Sample %+v resolved %+v, want %+v over %d",
					name, again, s.Diagnostics(), out, want)
			}

			u := stream.Update{Index: int(seed) % n, Delta: 50}
			s.Process(u)
			fresh.Process(u)
			moved, ok := s.Sample()
			freshAll = fresh.SampleAll()
			if ok != (len(freshAll) > 0) || ok && moved != freshAll[0] {
				t.Fatalf("%s: after an update Sample %+v %v, fresh SampleAll %v", name, moved, ok, freshAll)
			}
			if got, want := resolvedCount(s.Diagnostics()), min(firstEmitting(fresh)+1, copies); got != want {
				t.Fatalf("%s: after an update Sample resolved %d repetitions, want %d", name, got, want)
			}
		}
	}
	if lazy == 0 || late == 0 {
		t.Fatalf("the sweep missed a case: %d answers before the last repetition, %d at or after it", lazy, late)
	}
}
