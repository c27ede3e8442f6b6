package engine

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/stream"
)

// TestDurableKillRestartExactness is the tentpole property at the engine
// level: an ingest killed at arbitrary points and resumed from the durable
// store must end byte-identical to an uninterrupted serial ingest. Each
// kill abandons the engine mid-stream WITHOUT a final checkpoint — the
// write-ahead journal alone must carry every accepted update across the
// crash. The property sweeps random kill schedules.
func TestDurableKillRestartExactness(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		if err := runDurableKillRestart(t, seed); err != nil {
			t.Fatalf("seed %d: %v\nrepro: go test -race -run 'TestDurableKillRestartExactness' ./internal/engine (seed %d)",
				seed, err, seed)
		}
	}
}

func runDurableKillRestart(t *testing.T, seed uint64) error {
	const n, length = 256, 9000
	rng := rand.New(rand.NewPCG(seed, seed<<7))
	st := stream.RandomTurnstile(n, length, 40, rng)
	factory := l0Factory(n)

	serial := factory(0)
	st.Feed(serial)

	dir := t.TempDir()
	// 2 to 4 kills at random cut points.
	kills := 2 + rng.IntN(3)
	cuts := make([]int, 0, kills+2)
	cuts = append(cuts, 0)
	for i := 0; i < kills; i++ {
		cuts = append(cuts, 1+rng.IntN(length-1))
	}
	cuts = append(cuts, length)
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 1 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}

	var final []byte
	for leg := 0; leg+1 < len(cuts); leg++ {
		store, err := checkpoint.Open(dir, checkpoint.Options{})
		if err != nil {
			return err
		}
		eng := New(Config{
			Shards: 1 + int(seed)%4, BatchSize: 32, QueueDepth: 2,
			CheckpointEvery: 2500,
		}, factory, l0Merge)
		if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
			store.Close()
			return err
		}
		eng.ProcessBatch(st[cuts[leg]:cuts[leg+1]])
		if derr := eng.DurabilityErr(); derr != nil {
			store.Close()
			return derr
		}
		if leg+2 < len(cuts) {
			// Kill: no Results, no final checkpoint. Close only joins the
			// workers so the test does not leak goroutines; the journal is
			// all that survives.
			eng.Close()
		} else {
			merged, err := eng.Results()
			if err != nil {
				store.Close()
				return err
			}
			final = l0State(merged)
		}
		store.Close()
	}
	if !bytes.Equal(final, l0State(serial)) {
		return errors.New("resumed state differs from uninterrupted serial ingest")
	}
	return nil
}

// TestCheckpointAdoptAcrossShardCounts: a store written by a 4-shard engine
// must resume exactly into a 3-shard engine — generation blobs fold by
// s mod Shards and the journal tail replays into shard 0, both exact by
// linearity.
func TestCheckpointAdoptAcrossShardCounts(t *testing.T) {
	const n, length = 256, 5000
	st := stream.RandomTurnstile(n, length, 40, seeded(71))
	factory := l0Factory(n)

	serial := factory(0)
	st.Feed(serial)

	dir := t.TempDir()
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := New(Config{Shards: 4, BatchSize: 64}, factory, l0Merge)
	if err := first.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	first.ProcessBatch(st[:3000])
	if err := first.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	first.ProcessBatch(st[3000:4000]) // journal tail beyond the generation
	first.Close()
	store.Close()

	store2, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	resumed := New(Config{Shards: 3, BatchSize: 64}, factory, l0Merge)
	if err := resumed.CheckpointTo(store2, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	resumed.ProcessBatch(st[4000:])
	merged, err := resumed.Results()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("cross-shard-count resume differs from serial state")
	}
}

// TestCheckpointStatsAndGenerations: periodic checkpoints actually fire and
// the stats surface them.
func TestCheckpointStatsAndGenerations(t *testing.T) {
	const n, length = 128, 6000
	st := stream.RandomTurnstile(n, length, 20, seeded(72))
	factory := l0Factory(n)
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := New(Config{Shards: 2, BatchSize: 32, CheckpointEvery: 1000}, factory, l0Merge)
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < length; i += 500 {
		eng.ProcessBatch(st[i : i+500])
	}
	stats := eng.Stats()
	// One generation seals the bind, plus ~length/CheckpointEvery periodic.
	if stats.Checkpoints < 4 {
		t.Fatalf("Checkpoints = %d, want the bind seal plus periodic generations", stats.Checkpoints)
	}
	if stats.Generation == 0 {
		t.Fatal("Stats.Generation did not advance")
	}
	if _, err := eng.Results(); err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityErrHealsOnCheckpoint: a sticky journal-append failure
// surfaces in DurabilityErr without failing ingestion, and a later
// successful CheckpointNow — whose generation carries the complete state —
// clears it.
func TestDurabilityErrHealsOnCheckpoint(t *testing.T) {
	const n = 128
	factory := l0Factory(n)
	inj := faultinject.New(9, 1).Only(faultinject.JournalAppend)
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := New(Config{Shards: 2, BatchSize: 16}, factory, l0Merge)
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	st := stream.RandomTurnstile(n, 200, 20, seeded(73))
	eng.ProcessBatch(st)
	derr := eng.DurabilityErr()
	var ie *faultinject.InjectedErr
	if !errors.As(derr, &ie) {
		t.Fatalf("DurabilityErr = %v, want the injected journal fault", derr)
	}
	if err := eng.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	if derr := eng.DurabilityErr(); derr != nil {
		t.Fatalf("DurabilityErr after healing checkpoint = %v, want nil", derr)
	}
	if _, err := eng.Results(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointToGuards pins the binding error surface: nil arguments,
// double bind, and a store whose contents cannot be recovered.
func TestCheckpointToGuards(t *testing.T) {
	factory := l0Factory(64)
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	eng := New(Config{Shards: 2}, factory, l0Merge)
	defer eng.Close()
	if err := eng.CheckpointTo(nil, l0Marshal, l0Restore); err == nil {
		t.Fatal("nil store must be rejected")
	}
	if err := eng.CheckpointTo(store, nil, l0Restore); err == nil {
		t.Fatal("nil marshal must be rejected")
	}
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err == nil {
		t.Fatal("second bind must be rejected")
	}

	unbound := New(Config{Shards: 2}, factory, l0Merge)
	defer unbound.Close()
	if err := unbound.CheckpointNow(); err == nil {
		t.Fatal("CheckpointNow without a store must fail")
	}
}
