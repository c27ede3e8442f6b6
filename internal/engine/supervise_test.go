package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/stream"
)

// l0Factory builds the same-seed L0 replica the supervision and durability
// tests shard over.
func l0Factory(n int) func(int) *core.L0Sampler {
	return func(int) *core.L0Sampler {
		return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2},
			rand.New(rand.NewPCG(99, 98)))
	}
}

func l0Merge(dst, src *core.L0Sampler) error { return dst.Merge(src) }

// TestWorkerPanicQuarantinedWithoutStore: injected replica panics must never
// crash the process or wedge the producer; with no checkpoint store bound
// the taint is permanent and Results returns the degraded merge together
// with a typed *PartialResultError naming the quarantined shards.
func TestWorkerPanicQuarantinedWithoutStore(t *testing.T) {
	const n, length = 256, 8000
	st := stream.RandomTurnstile(n, length, 40, seeded(31))
	eng := New(Config{
		Shards: 4, BatchSize: 16, QueueDepth: 2,
		Injector: faultinject.New(7, 0.05).Only(faultinject.WorkerPanic),
	},
		csFactory(32), csMerge)
	eng.ProcessBatch(st)
	merged, err := eng.Results()
	var pe *PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("Results err = %v, want *PartialResultError", err)
	}
	if len(pe.Shards) == 0 || pe.Panics == 0 || pe.Lost == 0 {
		t.Fatalf("partial error carries no taint detail: %+v", pe)
	}
	if st := eng.Stats(); st.Panics == 0 {
		t.Fatalf("Stats.Panics = 0 after injected panics")
	}
	// The degraded result is still a usable sketch of the surviving shards.
	if merged == nil {
		t.Fatal("degraded merge is nil")
	}
	// Terminal semantics are unchanged: Results again returns the same pair.
	if _, err2 := eng.Results(); !errors.As(err2, &pe) {
		t.Fatalf("second Results err = %v", err2)
	}
}

// TestWorkerPanicExactWithStore is the supervision headline: with a
// checkpoint store bound, injected worker panics are healed by rolling the
// whole replica set back to the last durable generation plus the journal
// tail, and the final result is byte-identical to an uninterrupted serial
// ingest — panics cost latency, never answers.
func TestWorkerPanicExactWithStore(t *testing.T) {
	const n, length = 256, 6000
	st := stream.RandomTurnstile(n, length, 40, seeded(41))
	factory := l0Factory(n)

	serial := factory(0)
	st.Feed(serial)

	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	eng := New(Config{
		Shards: 4, BatchSize: 16, QueueDepth: 2,
		CheckpointEvery: 1500,
		Injector:        faultinject.New(11, 0.1).Only(faultinject.WorkerPanic),
	}, factory, l0Merge)
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	eng.ProcessBatch(st)
	merged, err := eng.Results()
	if err != nil {
		t.Fatalf("Results after supervised panics: %v", err)
	}
	stats := eng.Stats()
	if stats.Panics == 0 {
		t.Fatal("no panics were injected; the test exercised nothing")
	}
	if stats.Recoveries == 0 {
		t.Fatal("panics occurred but no rollback recovery was counted")
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("supervised result differs from uninterrupted serial state")
	}
}

// TestSnapshotRefusesTaintedState: a tainted engine with no store to roll
// back from must not emit snapshot blobs that encode the hole.
func TestSnapshotRefusesTaintedState(t *testing.T) {
	const n = 64
	factory := l0Factory(n)
	eng := New(Config{
		Shards: 2, BatchSize: 4,
		Injector: faultinject.New(3, 1).Only(faultinject.WorkerPanic),
	}, factory, l0Merge)
	defer eng.Close()
	eng.ProcessBatch(stream.RandomTurnstile(n, 64, 8, seeded(51)))
	_, err := eng.Snapshot(l0Marshal)
	var pe *PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("Snapshot on tainted engine: err = %v, want *PartialResultError", err)
	}
}

// TestTerminalGuardsAreTyped pins the ErrEngineClosed sentinel across every
// producer entry point: the hot-path guard panics with an error wrapping
// it, the cold paths return errors wrapping it.
func TestTerminalGuardsAreTyped(t *testing.T) {
	factory := l0Factory(64)
	eng := New(Config{Shards: 2}, factory, l0Merge)
	if _, err := eng.Results(); err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrEngineClosed) {
				t.Fatalf("Process panic value = %v, want error wrapping ErrEngineClosed", r)
			}
		}()
		eng.Process(stream.Update{Index: 1, Delta: 1})
	}()

	if _, err := eng.Snapshot(l0Marshal); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Snapshot: %v, want ErrEngineClosed", err)
	}
	if err := eng.CheckpointNow(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("CheckpointNow: %v, want ErrEngineClosed", err)
	}
	if err := eng.CheckpointTo(nil, nil, nil); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("CheckpointTo: %v, want ErrEngineClosed", err)
	}

	closed := New(Config{Shards: 1}, factory, l0Merge)
	closed.Close()
	if _, err := closed.Results(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Results after Close: %v, want ErrEngineClosed", err)
	}
}

// noSleep makes the store's retry loops instantaneous in tests.
func noSleep(context.Context, time.Duration) error { return nil }

// TestRollbackRefusedOnJournalHole: when the write-ahead journal itself
// failed (sticky append error), a rollback would silently under-count, so
// the engine must refuse it and surface the taint as a PartialResultError
// whose RecoveryErr explains the hole.
func TestRollbackRefusedOnJournalHole(t *testing.T) {
	const n = 64
	factory := l0Factory(n)
	inj := faultinject.New(5, 1).Only(faultinject.JournalAppend, faultinject.WorkerPanic)
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{
		Injector: inj,
		Retry:    retry.Policy{Attempts: 2, Sleep: noSleep},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	eng := New(Config{Shards: 2, BatchSize: 4, Injector: inj}, factory, l0Merge)
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		t.Fatal(err)
	}
	eng.ProcessBatch(stream.RandomTurnstile(n, 64, 8, seeded(52)))
	if err := eng.DurabilityErr(); err == nil {
		t.Fatal("journal appends were injected to fail, DurabilityErr is nil")
	}
	_, err = eng.Results()
	var pe *PartialResultError
	if !errors.As(err, &pe) {
		t.Fatalf("Results err = %v, want *PartialResultError", err)
	}
	if pe.RecoveryErr == nil {
		t.Fatal("PartialResultError.RecoveryErr must explain the refused rollback")
	}
	var ie *faultinject.InjectedErr
	if !errors.As(pe.RecoveryErr, &ie) {
		t.Fatalf("RecoveryErr = %v, want the injected journal fault as its cause", pe.RecoveryErr)
	}
}
