package sparse

import (
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/stream"
)

// stateBytes is a recoverer's framed linear state, the digest the tests
// compare; restoreState replaces a recoverer's state with it.
func stateBytes(rc *Recoverer) []byte {
	e := codec.NewEncoder(codec.KindInvalid)
	rc.AppendState(e)
	return e.Bytes()
}

func restoreState(rc *Recoverer, b []byte) error {
	d, err := codec.NewDecoder(b)
	if err != nil {
		return err
	}
	rc.RestoreState(d)
	return d.Finish()
}

// TestRestoreStateDirtyOnAllPaths is the regression test for the memoized
// decode surviving a restore: RestoreState must mark the decode dirty on
// every path, including a restore whose bytes run out, so no sequence of
// restore calls can leave a stale cached decode marked clean.
func TestRestoreStateDirtyOnAllPaths(t *testing.T) {
	rc := New(128, 4, rand.New(rand.NewPCG(21, 22)))
	rc.add(7, 3)
	if rec, ok := rc.Recover(); !ok || rec[7] != 3 || rc.dirty {
		t.Fatalf("seed decode failed or left the dirty bit set: %v %v", rec, ok)
	}

	// An accepted restore must dirty the cache and the next Recover must
	// serve the restored state, not the stale cache.
	donor := New(128, 4, rand.New(rand.NewPCG(21, 22)))
	donor.add(90, -4)
	state := stateBytes(donor)
	if err := restoreState(rc, state); err != nil {
		t.Fatal(err)
	}
	if rec, ok := rc.Recover(); !ok || rec[90] != -4 || rec[7] != 0 || rc.dirty {
		t.Fatalf("restore-then-Recover served stale state: %v %v", rec, ok)
	}

	// A failed restore (the payload is cut short) must dirty the cache too;
	// the caller discards the recoverer on that error.
	if err := restoreState(rc, state[:len(state)-3]); err == nil {
		t.Fatal("short restore must be rejected")
	}
	if !rc.dirty {
		t.Fatal("failed RestoreState left the memoized decode marked clean")
	}
}

// TestRestoreStateInvalidatesMemo covers the codec-framed restore path the
// public wire format uses: restore-then-Recover must re-decode.
func TestRestoreStateInvalidatesMemo(t *testing.T) {
	r1 := rand.New(rand.NewPCG(31, 32))
	r2 := rand.New(rand.NewPCG(31, 32))
	rc := New(128, 4, r1)
	donor := New(128, 4, r2)
	rc.add(5, 11)
	donor.add(60, 2)
	if rec, ok := rc.Recover(); !ok || rec[5] != 11 {
		t.Fatalf("seed decode failed: %v %v", rec, ok)
	}

	e := codec.NewEncoder(codec.KindL0Sampler)
	donor.AppendState(e)
	d, err := codec.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rc.RestoreState(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if rec, ok := rc.Recover(); !ok || rec[60] != 2 || rec[5] != 0 {
		t.Fatalf("RestoreState-then-Recover served stale state: %v %v", rec, ok)
	}

	// Round-trip: the framed bytes rebuild the state in a fresh instance.
	e2 := codec.NewEncoder(codec.KindL0Sampler)
	rc.AppendState(e2)
	d2, err := codec.NewDecoder(e2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(128, 4, rand.New(rand.NewPCG(31, 32)))
	fresh.RestoreState(d2)
	if err := d2.Finish(); err != nil {
		t.Fatal(err)
	}
	if rec, ok := fresh.Recover(); !ok || rec[60] != 2 {
		t.Fatalf("framed round-trip lost state: %v %v", rec, ok)
	}
}

// TestRestoreStateReducesCells: RestoreState takes words from a peer, and the
// folds assume canonical cells — the lazy five-term sum of the batched
// syndrome kernel has no headroom for a word near 2^64. All-ones words must
// come in as the field elements they represent, and a batch folded on top
// must land where the same batch lands on those elements set directly.
func TestRestoreStateReducesCells(t *testing.T) {
	const n, s = 1 << 12, 5
	rc := New(n, s, rand.New(rand.NewPCG(23, 24)))
	ones := codec.NewEncoder(codec.KindInvalid)
	for range 2*s + 1 {
		ones.U64(^uint64(0))
	}
	if err := restoreState(rc, ones.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := New(n, s, rand.New(rand.NewPCG(23, 24)))
	for j := range want.synd {
		want.synd[j] = field.New(^uint64(0))
	}
	want.fp = field.New(^uint64(0))
	for j, v := range rc.synd {
		if uint64(v) >= field.Modulus || v != want.synd[j] {
			t.Fatalf("synd[%d] = %#x after restoring all-ones, want canonical %#x", j, v, want.synd[j])
		}
	}
	if uint64(rc.fp) >= field.Modulus || rc.fp != want.fp {
		t.Fatalf("fp = %#x after restoring all-ones, want canonical %#x", rc.fp, want.fp)
	}
	batch := stream.RandomTurnstile(n, 1027, 1<<40, rand.New(rand.NewPCG(25, 26)))
	rc.ProcessBatch(batch)
	for _, u := range batch {
		want.Process(u)
	}
	for j := range rc.synd {
		if rc.synd[j] != want.synd[j] {
			t.Fatalf("synd[%d] = %#x after the fold, scalar fold on canonical cells %#x", j, rc.synd[j], want.synd[j])
		}
	}
	if rc.fp != want.fp {
		t.Fatalf("fp = %#x after the fold, want %#x", rc.fp, want.fp)
	}
}
