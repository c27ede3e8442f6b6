package engine

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/stream"
)

// l0Marshal/l0Restore adapt the L0 sampler's framed state to the
// Snapshot and CheckpointTo callbacks; l0State is the state the tests
// compare.
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

// TestSnapshotLoadMergeMatchesSerial: the blobs a mid-stream Snapshot
// returns, each loaded into a fresh same-seed replica and merged, are
// byte-identical to a serial ingest of the same prefix — the read a serving
// tier's merged view takes while ingestion continues.
func TestSnapshotLoadMergeMatchesSerial(t *testing.T) {
	const n, length, shards = 512, 6000, 4
	st := stream.RandomTurnstile(n, length, 50, rand.New(rand.NewPCG(11, 12)))
	factory := l0Factory(n)

	cut := length / 3
	serial := factory(0)
	st[:cut].Feed(serial)

	eng := New(Config{Shards: shards, BatchSize: 64}, factory, l0Merge)
	defer eng.Close()
	eng.ProcessBatch(st[:cut])
	snap, err := eng.Snapshot(l0Marshal)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != shards {
		t.Fatalf("snapshot has %d blobs, want %d", len(snap), shards)
	}
	merged := factory(0)
	for s, blob := range snap {
		part := factory(s)
		if err := l0Restore(part, blob); err != nil {
			t.Fatalf("loading shard %d: %v", s, err)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatalf("merging shard %d: %v", s, err)
		}
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("merged snapshot blobs differ from the serial state of the same prefix")
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
}
