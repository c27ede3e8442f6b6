package core

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// holdsPending reports whether a sampler (*LpSampler or *L0Sampler) has
// allocated its single-update buffer.
func holdsPending(s any) bool {
	return !reflect.ValueOf(s).Elem().FieldByName("pending").Field(0).IsNil()
}

// TestLpPendingFillGuardAndRestore walks the single-update buffer across its
// fill with a guard trip inside it: the tripping update is Process'd first,
// and no repetition is guarded while it waits (255 pending), one is once the
// 256th update folds the buffer without any read, and a 257th waits again
// until SampleAll flushes it. Then RestoreState must drop a pending trip
// instead of folding it into the restored state. At every read the state
// equals a reference fed the same updates through ProcessBatch.
func TestLpPendingFillGuardAndRestore(t *testing.T) {
	const n = 1 << 10
	for _, p := range []float64{0.5, 1, 1.5} {
		mk := func() *LpSampler {
			s := NewLpSampler(LpConfig{P: p, N: n, Eps: 0.3, Delta: 0.3, Copies: 4}, rand.New(rand.NewPCG(61, 62)))
			s.tMin = 1e-2
			return s
		}
		s, ref := mk(), mk()
		trips, clean := -1, -1
		for i := 0; i < n && (trips < 0 || clean < 0); i++ {
			guards := 0
			for _, c := range s.copies {
				if c.t.Float64(0, uint64(i)) < s.tMin {
					guards++
				}
			}
			if guards > 0 && trips < 0 {
				trips = i
			}
			if guards == 0 && clean < 0 {
				clean = i
			}
		}
		if trips < 0 || clean < 0 {
			t.Fatalf("p=%v: no key trips the raised guard, or every key does", p)
		}
		guarded := func() int {
			g := 0
			for _, c := range s.copies {
				if c.guarded {
					g++
				}
			}
			return g
		}
		st := stream.Stream{{Index: trips, Delta: 5}}
		for len(st) < 257 {
			st = append(st, stream.Update{Index: clean, Delta: int64(len(st)%7 - 3)})
		}

		for _, u := range st[:255] {
			s.Process(u)
		}
		if g := guarded(); g != 0 {
			t.Fatalf("p=%v: %d repetitions guarded with the trip still pending", p, g)
		}
		s.Process(st[255])
		if guarded() == 0 {
			t.Fatalf("p=%v: the 256th update did not fold the full buffer", p)
		}
		s.Process(st[256])
		ref.ProcessBatch(st)
		if got, want := s.SampleAll(), ref.SampleAll(); !reflect.DeepEqual(got, want) || s.Diagnostics() != ref.Diagnostics() {
			t.Fatalf("p=%v: SampleAll %v %+v, reference %v %+v", p, got, s.Diagnostics(), want, ref.Diagnostics())
		}
		if !bytes.Equal(stateBytes(s), stateBytes(ref)) {
			t.Fatalf("p=%v: state differs from the batch-fed reference", p)
		}

		// RestoreState discards what is pending: restore a state without the
		// trip over a pending trip.
		untripped := mk()
		untripped.ProcessBatch(st[1:])
		want := stateBytes(untripped)
		s.Process(st[0])
		if err := restoreState(s, want); err != nil {
			t.Fatal(err)
		}
		s.SampleAll()
		if d := s.Diagnostics(); d.Guarded != 0 || d.Emitted+d.STestAborts+d.ThresholdFails != len(s.copies) {
			t.Fatalf("p=%v: the pending trip outlived RestoreState: %+v", p, d)
		}
		if !bytes.Equal(stateBytes(s), want) {
			t.Fatalf("p=%v: RestoreState folded the pending update", p)
		}
	}
}

// TestLpPendingOnlyOnProcess: a sampler that is built, loaded, merged,
// batch-fed, queried and exported never allocates the single-update buffer;
// the first Process does.
func TestLpPendingOnlyOnProcess(t *testing.T) {
	const n = 1 << 10
	mk := func() *LpSampler {
		return NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.3, Delta: 0.3, Copies: 3}, rand.New(rand.NewPCG(63, 64)))
	}
	st := stream.ZipfSigned(n, 1.1, 1000, rand.New(rand.NewPCG(65, 66)))
	src := mk()
	src.ProcessBatch(st)

	s := mk()
	if err := restoreState(s, stateBytes(src)); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(src); err != nil {
		t.Fatal(err)
	}
	s.ProcessBatch(st[:10])
	s.SampleAll()
	stateBytes(s)
	if holdsPending(s) || holdsPending(src) {
		t.Fatal("a sampler never fed by Process holds a pending buffer")
	}
	s.Process(st[0])
	if !holdsPending(s) {
		t.Fatal("Process did not allocate the pending buffer")
	}
}

// TestL0PendingOnlyOnProcess is TestLpPendingOnlyOnProcess for the L0
// sampler, whose served instances are fed in frames: loading, merging,
// batch-feeding, sampling, decoding a level and exporting allocate no
// single-update buffer; the first Process does.
func TestL0PendingOnlyOnProcess(t *testing.T) {
	const n = 1 << 10
	mk := func() *L0Sampler {
		return NewL0Sampler(L0Config{N: n, Delta: 0.2}, rand.New(rand.NewPCG(67, 68)))
	}
	st := stream.RandomTurnstile(n, 1000, 50, rand.New(rand.NewPCG(69, 70)))
	src := mk()
	src.ProcessBatch(st)

	s := mk()
	if err := restoreState(s, stateBytes(src)); err != nil {
		t.Fatal(err)
	}
	if err := s.Merge(src); err != nil {
		t.Fatal(err)
	}
	s.ProcessBatch(st[:10])
	s.Sample()
	s.RecoverLevel(s.Levels() - 1)
	stateBytes(s)
	if holdsPending(s) || holdsPending(src) {
		t.Fatal("a sampler never fed by Process holds a pending buffer")
	}
	s.Process(st[0])
	if !holdsPending(s) {
		t.Fatal("Process did not allocate the pending buffer")
	}
}
