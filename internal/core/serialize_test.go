package core

import (
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
)

func TestL0ExportImportRoundTrip(t *testing.T) {
	r1 := rand.New(rand.NewPCG(1, 2))
	r2 := rand.New(rand.NewPCG(1, 2))
	alice := NewL0Sampler(L0Config{N: 256, Delta: 0.2}, r1)
	bob := NewL0Sampler(L0Config{N: 256, Delta: 0.2}, r2)

	// Alice feeds x.
	for i := 0; i < 50; i++ {
		alice.Process(stream.Update{Index: i, Delta: int64(i + 1)})
	}
	msg := stateBytes(alice)
	// Bob restores and subtracts y (= x except coordinate 7): the handoff of
	// Proposition 5's one-round protocol, over real bytes.
	if err := restoreState(bob, msg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if i == 7 {
			continue
		}
		bob.Process(stream.Update{Index: i, Delta: -int64(i + 1)})
	}
	out, ok := bob.Sample()
	if !ok {
		t.Fatal("handoff sampler failed")
	}
	if out.Index != 7 || out.Estimate != 8 {
		t.Fatalf("sampled (%d,%v), want (7,8)", out.Index, out.Estimate)
	}
}

func TestL0ImportRejectsWrongSize(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	s := NewL0Sampler(L0Config{N: 128, Delta: 0.2}, r)
	short := stateBytes(s)
	if err := restoreState(s, short[:len(short)-7]); err == nil {
		t.Fatal("short state must be rejected")
	}
	if err := restoreState(s, append(stateBytes(s), 0)); err == nil {
		t.Fatal("long state must be rejected")
	}
}

// TestL0RestoreInvalidatesPrimedSampleCache is the regression test for the
// restore-then-Sample path: a sampler whose memoized Sample is primed must
// re-decode after RestoreState instead of serving the stale cache.
func TestL0RestoreInvalidatesPrimedSampleCache(t *testing.T) {
	r1 := rand.New(rand.NewPCG(6, 6))
	r2 := rand.New(rand.NewPCG(6, 6))
	a := NewL0Sampler(L0Config{N: 64, Delta: 0.2}, r1)
	b := NewL0Sampler(L0Config{N: 64, Delta: 0.2}, r2)
	a.Process(stream.Update{Index: 5, Delta: 9})
	b.Process(stream.Update{Index: 33, Delta: 1})
	// Prime b's memoized sample before the restore.
	if out, ok := b.Sample(); !ok || out.Index != 33 {
		t.Fatalf("priming sample: %+v ok=%v", out, ok)
	}
	state := stateBytes(a)
	if err := restoreState(b, state); err != nil {
		t.Fatal(err)
	}
	out, ok := b.Sample()
	if !ok || out.Index != 5 || out.Estimate != 9 {
		t.Fatalf("restore-then-Sample served stale cache: %+v ok=%v", out, ok)
	}
	// A failed restore must also leave the cache invalidated: the next Sample
	// re-decodes instead of answering from before the restore.
	if err := restoreState(b, state[:len(state)-7]); err == nil {
		t.Fatal("short state must be rejected")
	}
	if b.queryValid {
		t.Fatal("failed restore left the memoized sample valid")
	}
}

func TestL0ImportOverwrites(t *testing.T) {
	r1 := rand.New(rand.NewPCG(4, 4))
	r2 := rand.New(rand.NewPCG(4, 4))
	a := NewL0Sampler(L0Config{N: 64, Delta: 0.2}, r1)
	b := NewL0Sampler(L0Config{N: 64, Delta: 0.2}, r2)
	a.Process(stream.Update{Index: 5, Delta: 9})
	b.Process(stream.Update{Index: 33, Delta: 1}) // will be overwritten
	if err := restoreState(b, stateBytes(a)); err != nil {
		t.Fatal(err)
	}
	out, ok := b.Sample()
	if !ok || out.Index != 5 || out.Estimate != 9 {
		t.Fatalf("restore did not replace state: %+v ok=%v", out, ok)
	}
}
