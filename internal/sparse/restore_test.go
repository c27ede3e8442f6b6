package sparse

import (
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestImportStateDirtyOnAllPaths is the regression test for the memoized
// decode surviving a restore: ImportState must mark the decode dirty on
// every path, including rejected imports, so no sequence of restore calls
// can leave a stale cached decode marked clean.
func TestImportStateDirtyOnAllPaths(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 22))
	rc := New(128, 4, r)
	rc.Add(7, 3)
	if rec, ok := rc.Recover(); !ok || rec[7] != 3 {
		t.Fatalf("seed decode failed: %v %v", rec, ok)
	}
	if rc.dirty {
		t.Fatal("decode did not clear the dirty bit")
	}

	// A rejected import (wrong length) must still dirty the cache.
	if err := rc.ImportState(make([]byte, 3)); err == nil {
		t.Fatal("short import must be rejected")
	}
	if !rc.dirty {
		t.Fatal("rejected ImportState left the memoized decode marked clean")
	}
	// The re-decode over the untouched state still answers correctly.
	if rec, ok := rc.Recover(); !ok || rec[7] != 3 {
		t.Fatalf("decode after rejected import: %v %v", rec, ok)
	}

	// An accepted import must dirty the cache and the next Recover must
	// serve the imported state, not the stale cache.
	r2 := rand.New(rand.NewPCG(21, 22))
	donor := New(128, 4, r2)
	donor.Add(90, -4)
	if err := rc.ImportState(donor.ExportState()); err != nil {
		t.Fatal(err)
	}
	if rec, ok := rc.Recover(); !ok || rec[90] != -4 || rec[7] != 0 {
		t.Fatalf("restore-then-Recover served stale state: %v %v", rec, ok)
	}
}

// TestRestoreStateInvalidatesMemo covers the codec-framed restore path the
// public wire format uses: restore-then-Recover must re-decode.
func TestRestoreStateInvalidatesMemo(t *testing.T) {
	r1 := rand.New(rand.NewPCG(31, 32))
	r2 := rand.New(rand.NewPCG(31, 32))
	rc := New(128, 4, r1)
	donor := New(128, 4, r2)
	rc.Add(5, 11)
	donor.Add(60, 2)
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

	// Round-trip: the framed bytes carry exactly the raw ExportState words.
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

// TestImportStateReducesCells: ImportState takes bytes from a peer, and the
// folds assume canonical cells — the lazy five-term sum of the batched
// syndrome kernel has no headroom for a word near 2^64. All-ones words must
// come in as the field elements they represent (as RestoreState reads them),
// and a batch folded on top must land where the same batch lands on those
// elements set directly.
func TestImportStateReducesCells(t *testing.T) {
	const n, s = 1 << 12, 5
	rc := New(n, s, rand.New(rand.NewPCG(23, 24)))
	ones := make([]byte, (2*s+1)*8)
	for i := range ones {
		ones[i] = 0xFF
	}
	if err := rc.ImportState(ones); err != nil {
		t.Fatal(err)
	}
	want := New(n, s, rand.New(rand.NewPCG(23, 24)))
	for j := range want.synd {
		want.synd[j] = field.New(^uint64(0))
	}
	want.fp = field.New(^uint64(0))
	for j, v := range rc.synd {
		if uint64(v) >= field.Modulus || v != want.synd[j] {
			t.Fatalf("synd[%d] = %#x after importing all-ones, want canonical %#x", j, v, want.synd[j])
		}
	}
	if uint64(rc.fp) >= field.Modulus || rc.fp != want.fp {
		t.Fatalf("fp = %#x after importing all-ones, want canonical %#x", rc.fp, want.fp)
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
