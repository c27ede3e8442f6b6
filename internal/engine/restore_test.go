package engine

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/stream"
)

// These tests pin the error paths of Engine.Restore: a failed restore —
// truncated blob, corrupt blob, callback error on a later shard — must
// leave the engine exactly as it was (still ingesting the pre-failure
// state, not half-replaced) and still restorable from a good snapshot.

// TestRestoreTruncatedBlobLeavesStateIntact takes a snapshot early, keeps
// ingesting, then attempts a restore where the SECOND blob is truncated.
// Shard 0's blob is valid — a non-staged restore would have already
// replaced shard 0's replica with the early state when shard 1 fails,
// silently dropping everything shard 0 absorbed in between. The final
// result must match serial over the whole stream, proving no replica was
// touched.
func TestRestoreTruncatedBlobLeavesStateIntact(t *testing.T) {
	const n, length = 256, 6000
	st := stream.RandomTurnstile(n, length, 40, seeded(81))
	factory := l0Factory(n)

	serial := factory(0)
	st.Feed(serial)

	eng := New(Config{Shards: 2, BatchSize: 64}, factory, l0Merge)
	eng.ProcessBatch(st[:2000])
	snap, err := eng.Snapshot(l0Marshal)
	if err != nil {
		t.Fatal(err)
	}
	eng.ProcessBatch(st[2000:4000])

	bad := [][]byte{snap[0], snap[1][:7]} // 7 bytes can never be a whole state
	if err := eng.Restore(bad, l0Restore); err == nil {
		t.Fatal("Restore with a truncated blob must fail")
	}

	eng.ProcessBatch(st[4000:])
	merged, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("failed Restore disturbed the live replicas")
	}
}

// TestRestoreFailureThenRetrySucceeds: after a failed restore the engine is
// not poisoned — restoring the intact snapshot immediately afterwards works
// and resumes exactly.
func TestRestoreFailureThenRetrySucceeds(t *testing.T) {
	const n, length = 256, 6000
	st := stream.RandomTurnstile(n, length, 40, seeded(82))
	factory := l0Factory(n)

	serial := factory(0)
	st.Feed(serial)

	eng := New(Config{Shards: 2, BatchSize: 64}, factory, l0Merge)
	eng.ProcessBatch(st[:3000])
	snap, err := eng.Snapshot(l0Marshal)
	if err != nil {
		t.Fatal(err)
	}
	eng.ProcessBatch(st[3000:5000]) // will be discarded by the good restore

	corrupt := [][]byte{snap[0], snap[1][:len(snap[1])-1]}
	if err := eng.Restore(corrupt, l0Restore); err == nil {
		t.Fatal("Restore with a corrupt blob must fail")
	}
	if err := eng.Restore(snap, l0Restore); err != nil {
		t.Fatalf("Restore retry after failure: %v", err)
	}
	eng.ProcessBatch(st[3000:])
	merged, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("resume after failed-then-good Restore differs from serial")
	}
}

// TestRestoreCallbackErrorMidway: the callback itself failing on a later
// shard (not just blob decoding) must also leave the engine usable, and the
// error must carry the failing shard.
func TestRestoreCallbackErrorMidway(t *testing.T) {
	const n = 128
	factory := l0Factory(n)
	st := stream.RandomTurnstile(n, 1000, 20, seeded(83))

	serial := factory(0)
	st.Feed(serial)

	eng := New(Config{Shards: 3, BatchSize: 32}, factory, l0Merge)
	eng.ProcessBatch(st)
	snap, err := eng.Snapshot(l0Marshal)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	calls := 0
	failing := func(r *core.L0Sampler, b []byte) error {
		calls++
		if calls == 2 {
			return boom
		}
		return l0Restore(r, b)
	}
	if err := eng.Restore(snap, failing); !errors.Is(err, boom) {
		t.Fatalf("Restore err = %v, want the callback's error", err)
	}
	merged, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("mid-restore callback failure disturbed the live replicas")
	}
}
