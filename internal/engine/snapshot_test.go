package engine

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/stream"
)

// l0Marshal/l0Restore adapt the L0 sampler's framed state to the
// Snapshot/Restore callbacks; l0State is the state the tests compare.
func l0Marshal(s *core.L0Sampler) ([]byte, error) { return l0State(s), nil }

func l0Restore(s *core.L0Sampler, b []byte) error {
	d, err := codec.NewDecoder(b)
	if err != nil {
		return err
	}
	s.RestoreState(d)
	return d.Finish()
}

func l0State(s *core.L0Sampler) []byte {
	e := codec.NewEncoder(codec.KindL0Sampler)
	s.AppendState(e)
	return e.Bytes()
}

// TestSnapshotRestoreResumesExactly checkpoints a sharded ingest mid-stream,
// "crashes" the engine, restores the snapshot into a fresh engine, replays
// the rest of the stream and checks the final merged state is byte-identical
// to an uninterrupted serial ingest.
func TestSnapshotRestoreResumesExactly(t *testing.T) {
	const n, length, shards = 512, 6000, 4
	st := stream.RandomTurnstile(n, length, 50, rand.New(rand.NewPCG(11, 12)))
	factory := func(int) *core.L0Sampler {
		return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2},
			rand.New(rand.NewPCG(99, 98)))
	}
	merge := func(dst, src *core.L0Sampler) error { return dst.Merge(src) }

	serial := factory(0)
	st.Feed(serial)

	cut := length / 3
	first := New(Config{Shards: shards, BatchSize: 64}, factory, merge)
	first.ProcessBatch(st[:cut])
	snap, err := first.Snapshot(l0Marshal)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != shards {
		t.Fatalf("snapshot has %d blobs, want %d", len(snap), shards)
	}
	// The first engine crashes: whatever it would have processed next is
	// lost with it.
	first.Close()

	resumed := New(Config{Shards: shards, BatchSize: 64}, factory, merge)
	if err := resumed.Restore(snap, l0Restore); err != nil {
		t.Fatal(err)
	}
	resumed.ProcessBatch(st[cut:])
	merged, err := resumed.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("resumed sharded state differs from uninterrupted serial state")
	}
}

// TestSnapshotMidStreamContinues checks that the engine keeps ingesting
// after a Snapshot: the checkpoint is a barrier, not a terminator.
func TestSnapshotMidStreamContinues(t *testing.T) {
	const n, length = 256, 3000
	st := stream.RandomTurnstile(n, length, 20, rand.New(rand.NewPCG(5, 6)))
	factory := func(int) *core.L0Sampler {
		return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2},
			rand.New(rand.NewPCG(7, 8)))
	}
	merge := func(dst, src *core.L0Sampler) error { return dst.Merge(src) }

	serial := factory(0)
	st.Feed(serial)

	eng := New(Config{Shards: 3, BatchSize: 128}, factory, merge)
	eng.ProcessBatch(st[:length/2])
	if _, err := eng.Snapshot(l0Marshal); err != nil {
		t.Fatal(err)
	}
	eng.ProcessBatch(st[length/2:])
	merged, err := eng.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("post-snapshot ingestion diverged from serial state")
	}
}

// TestRestoreShardCountMismatch pins the typed error for snapshots taken
// with a different shard count.
func TestRestoreShardCountMismatch(t *testing.T) {
	factory := func(int) *core.L0Sampler {
		return core.NewL0Sampler(core.L0Config{N: 64, Delta: 0.2},
			rand.New(rand.NewPCG(1, 2)))
	}
	merge := func(dst, src *core.L0Sampler) error { return dst.Merge(src) }
	eng := New(Config{Shards: 2}, factory, merge)
	defer eng.Close()
	if err := eng.Restore(make([][]byte, 3), l0Restore); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("Restore with wrong shard count: %v, want ErrConfigMismatch", err)
	}
}

// TestSnapshotAfterResultsFails pins the terminal-engine guard.
func TestSnapshotAfterResultsFails(t *testing.T) {
	factory := func(int) *core.L0Sampler {
		return core.NewL0Sampler(core.L0Config{N: 64, Delta: 0.2},
			rand.New(rand.NewPCG(3, 4)))
	}
	merge := func(dst, src *core.L0Sampler) error { return dst.Merge(src) }
	eng := New(Config{Shards: 2}, factory, merge)
	if _, err := eng.Results(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Snapshot(l0Marshal); err == nil {
		t.Fatal("Snapshot after Results must fail")
	}
	if err := eng.Restore(make([][]byte, 2), l0Restore); err == nil {
		t.Fatal("Restore after Results must fail")
	}
}
