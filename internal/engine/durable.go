package engine

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/stream"
)

// durableState is the engine's crash-safety wiring, zero unless
// CheckpointTo bound a store. All fields are producer-only.
type durableState[T stream.Sink] struct {
	store   *checkpoint.Store
	marshal func(T) ([]byte, error)
	restore func(T, []byte) error
	// sinceCkpt counts accepted updates since the last durable generation;
	// checkpoints counts generations written by this engine.
	sinceCkpt   int
	checkpoints int64
	// appendErr is sticky: once a journal append fails, journaling stops —
	// a hole mid-journal would make any later replay silently wrong — until
	// a successful checkpoint (whose generation carries the complete state)
	// re-seals durability. ckptErr is the last checkpoint failure, cleared
	// on success. recoverErr is why a rollback could not re-establish
	// exactness after worker panics.
	appendErr  error
	ckptErr    error
	recoverErr error
	wal1       [1]stream.Update // scratch so Process journals without allocating
}

// CheckpointTo binds a durable checkpoint store to the engine: every
// accepted batch is journaled write-ahead, a generation (one marshaled blob
// per shard) is written every Config.CheckpointEvery updates, and worker
// panics roll back to the last durable state instead of degrading the
// result. marshal and restore translate between replicas and blobs (marshal
// as for Snapshot; restore loads a blob into a fresh same-seed replica).
//
// If the store already holds state, the engine ADOPTS it first — its
// current replicas are discarded and rebuilt from the store's last good
// generation plus the journal tail (exact for any saved shard count, by
// linearity) — and then immediately writes a fresh generation, rotating the
// journal so the replayed tail can never be double-counted. Binding a
// virgin store just seals generation zero. Either way, a clean return means
// the engine and the store agree and every later accepted update is
// durable.
//
// The store stays owned by the caller (the engine never closes it) and at
// most one store may be bound per engine.
func (e *Engine[T]) CheckpointTo(store *checkpoint.Store, marshal func(T) ([]byte, error), restore func(T, []byte) error) error {
	if e.done {
		return fmt.Errorf("engine: CheckpointTo: %w", ErrEngineClosed)
	}
	if store == nil || marshal == nil || restore == nil {
		return errors.New("engine: CheckpointTo requires a store, a marshal func and a restore func")
	}
	if e.durable.store != nil {
		return errors.New("engine: a checkpoint store is already bound")
	}
	e.durable.store = store
	e.durable.marshal = marshal
	e.durable.restore = restore
	rec, err := store.Latest()
	switch {
	case err == nil:
		e.quiesce()
		if err := e.adopt(rec); err != nil {
			e.durable = durableState[T]{}
			return fmt.Errorf("engine: adopting checkpoint store state: %w", err)
		}
	case errors.Is(err, checkpoint.ErrNoCheckpoint) && !errors.Is(err, checkpoint.ErrTornWrite):
		// Virgin store: nothing to adopt, the engine's current state becomes
		// the baseline.
	default:
		// The store holds data it cannot recover (all generations torn, or a
		// journal gap). Refuse to bind rather than silently discard it; the
		// caller can inspect the directory, and delete it if starting over
		// is intended.
		e.durable = durableState[T]{}
		return fmt.Errorf("engine: recovering checkpoint store state: %w", err)
	}
	if err := e.CheckpointNow(); err != nil {
		e.durable = durableState[T]{}
		return err
	}
	return nil
}

// CheckpointNow quiesces the engine and writes a durable generation — one
// marshaled blob per shard — rotating the write-ahead journal. A tainted
// engine whose rollback failed refuses to checkpoint (the blobs would
// encode the hole) and returns the same typed *PartialResultError Results
// would. On success any earlier journaling failure is healed: the new
// generation carries the complete state, so durability is re-established
// from here.
func (e *Engine[T]) CheckpointNow() error {
	if e.done {
		return fmt.Errorf("engine: CheckpointNow: %w", ErrEngineClosed)
	}
	d := &e.durable
	if d.store == nil {
		return errors.New("engine: CheckpointNow without a bound store (use CheckpointTo)")
	}
	e.quiesce()
	if e.anyTainted() {
		err := e.partialError()
		d.ckptErr = err
		return err
	}
	states := make([][]byte, len(e.slots))
	for s, slot := range e.slots {
		b, err := d.marshal(slot.replica)
		if err != nil {
			d.ckptErr = fmt.Errorf("engine: marshaling shard %d for checkpoint: %w", s, err)
			return d.ckptErr
		}
		states[s] = b
	}
	if _, err := d.store.Save(states); err != nil {
		d.ckptErr = fmt.Errorf("engine: writing checkpoint: %w", err)
		return d.ckptErr
	}
	d.ckptErr, d.appendErr = nil, nil
	d.sinceCkpt = 0
	d.checkpoints++
	return nil
}

// DurabilityErr reports the engine's current durability health: nil when
// every accepted update is either journaled or covered by a generation, or
// the join of the sticky journal failure, the last checkpoint failure and
// the last rollback failure. Ingestion itself never fails on durability
// errors — the in-memory result stays exact — so callers that care must
// poll this (or check the error from CheckpointNow/Results).
func (e *Engine[T]) DurabilityErr() error {
	d := &e.durable
	return errors.Join(d.appendErr, d.ckptErr, d.recoverErr)
}

// journalBatch appends one accepted batch to the write-ahead journal.
// Write-ahead means journal-then-route: the journal is a superset of what
// the replicas absorbed, so recovery (generation + journal replay) can
// never under-count. Failures stop journaling (see durableState.appendErr)
// but never fail ingestion.
func (e *Engine[T]) journalBatch(batch []stream.Update) {
	d := &e.durable
	if d.store == nil || d.appendErr != nil || len(batch) == 0 {
		return
	}
	if err := d.store.Append(batch); err != nil {
		d.appendErr = fmt.Errorf("engine: write-ahead journal append: %w", err)
	}
}

func (e *Engine[T]) journalOne(u stream.Update) {
	if e.durable.store == nil {
		return
	}
	e.durable.wal1[0] = u
	e.journalBatch(e.durable.wal1[:1])
}

// maybeCheckpoint ticks the periodic-checkpoint counter after n accepted
// updates and writes a generation once Config.CheckpointEvery is crossed.
// Failures are recorded in DurabilityErr, not surfaced here — the ingest
// hot path stays infallible.
func (e *Engine[T]) maybeCheckpoint(n int) {
	d := &e.durable
	if d.store == nil || e.cfg.CheckpointEvery <= 0 {
		return
	}
	d.sinceCkpt += n
	if d.sinceCkpt < e.cfg.CheckpointEvery {
		return
	}
	//nolint:errcheck // recorded in d.ckptErr / DurabilityErr by CheckpointNow
	_ = e.CheckpointNow()
	d.sinceCkpt = 0
}

// rollback re-establishes exactness after worker panics by rebuilding the
// entire replica set from the store's last durable generation plus the
// journal tail. The restore is global rather than per-shard because the
// journal is not sharded: it records accepted batches in arrival order, so
// there is no per-shard tail to replay into one replica — and linearity
// makes the whole-engine form cheap to reason about (generation blobs +
// journal tail = every accepted update, each exactly once). Requires the
// workers quiesced or joined; requires an unbroken journal (a sticky append
// failure means the tail has a hole, so rollback refuses rather than
// under-count).
func (e *Engine[T]) rollback() error {
	d := &e.durable
	if d.appendErr != nil {
		return fmt.Errorf("engine: rollback impossible, write-ahead journal has a hole: %w", d.appendErr)
	}
	rec, err := d.store.Latest()
	if err != nil {
		return fmt.Errorf("engine: rollback: %w", err)
	}
	return e.adopt(rec)
}

// adopt rebuilds the replica set from a store recovery: each generation
// blob restores into a staged fresh replica and folds into staged slot
// s mod Shards — exact for any saved shard count, by linearity — and the
// journal tail replays into staged slot 0. All-or-nothing: a failure leaves
// the live replicas untouched. Requires the workers quiesced or joined.
func (e *Engine[T]) adopt(rec *checkpoint.Recovery) error {
	staged := make([]T, len(e.slots))
	for s := range staged {
		staged[s] = e.factory(s)
	}
	for i, blob := range rec.States {
		tmp := e.factory(i % len(staged))
		if err := e.durable.restore(tmp, blob); err != nil {
			return fmt.Errorf("engine: restoring checkpoint shard state %d of generation %d: %w",
				i, rec.Generation, err)
		}
		if err := e.mergeInto(staged[i%len(staged)], tmp); err != nil {
			return fmt.Errorf("engine: folding checkpoint shard state %d: %w", i, err)
		}
	}
	for _, b := range rec.Tail {
		stream.ProcessAll(staged[0], b)
	}
	e.installReplicas(staged)
	return nil
}
