// Package engine implements sharded, concurrent ingestion for the linear
// sketches of this repository.
//
// Every sketch here — count-sketch, exact sparse recovery, the L0/Lp
// samplers, the distinct-elements estimator, heavy hitters, the duplicate
// finders — is a linear function of the input vector, so a sketch
// of x + y is the cell-wise sum of same-seed sketches of x and y. The engine
// exploits exactly that:
//
//	updates ──route by index──▶ shard 0 ─ batch ─▶ worker 0: replica 0
//	                            shard 1 ─ batch ─▶ worker 1: replica 1   ──▶ Merge ──▶ result
//	                            ...
//	                            shard S-1 ─────▶ worker S-1: replica S-1
//
// The caller supplies a factory that builds one same-seed replica per shard
// (same WithSeed / identically seeded *rand.Rand, so all replicas share
// randomness) and a merge function; the engine routes each update to the
// shard owning its coordinate, accumulates per-shard batches to amortize
// channel handoffs, and the workers drive each replica's ProcessBatch hot
// path. Results flushes, joins the workers and folds the replicas together.
//
// That is the whole mechanism. The shard count and the index → shard map
// (shardOf) are fixed at New, so update i is always in replica shardOf(i);
// each shard has one worker running `for batch := range slot.ch`; a full
// shard queue blocks the producer until that worker drains a batch, which
// bounds memory at Shards × QueueDepth × BatchSize buffered updates. The
// engine does not rebalance: linearity would make resizing, spilling, work
// stealing or hot-key fan-out exact, but on the one skewed stream this
// repository measures (BenchmarkIngestEngineSkew) none of them beat this
// loop — README "What the engine does not do" has the numbers.
//
// Producer methods (Process, ProcessBatch, Feed, Results, Close, Snapshot,
// Stats, CheckpointTo, CheckpointNow) must be called from one goroutine; the
// parallelism lives in the shard workers.
//
// # Supervision
//
// A panicking replica is quarantined rather than allowed to kill the
// process: the shard worker recovers, discards the indeterminate replica,
// respawns a fresh same-seed one in its place and keeps draining its queue,
// so no fault schedule can wedge the producer against a full queue. The
// shard is marked tainted — its discarded replica's updates are missing —
// and at the next quiesce barrier the engine re-establishes exactness by
// rolling every replica back to the bound checkpoint store's last good
// generation and replaying the journal tail (see durable.go). Without a
// store the taint is permanent and Results returns the degraded merge
// together with a typed *PartialResultError naming the quarantined shards.
//
// # Checkpoint and resume
//
// Because every replica is a serializable linear sketch, a sharded ingest
// can be read mid-stream: Snapshot quiesces the workers (flushes pending
// batches, waits until every in-flight batch is consumed) and returns one
// marshaled state per shard replica; ingestion continues afterwards. The
// blobs are same-seed sketches of disjoint parts of the input, so loading
// and merging them gives the sketch of every update accepted so far.
//
// Resuming is CheckpointTo's job: it binds an internal/checkpoint.Store,
// journals every accepted batch write-ahead, and writes a durable generation
// every Config.CheckpointEvery updates. Binding a store that already holds
// state adopts it — the replicas are rebuilt from the last good generation
// plus the journal tail, for any saved shard count — so a killed process
// resumes byte-identical from disk (TestDurableKillRestartExactness).
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/stream"
)

// ErrEngineClosed is the typed sentinel for every use-after-termination
// guard: producer entry points called after Results or Close either return
// an error wrapping it or, on the hot ingest path, panic with an error
// wrapping it.
var ErrEngineClosed = errors.New("engine: engine is terminal after Results/Close")

// Config tunes the engine. Zero values select sensible defaults.
type Config struct {
	// Shards is the number of worker shards (default runtime.GOMAXPROCS),
	// fixed for the engine's lifetime.
	Shards int
	// BatchSize is the number of updates accumulated per shard before the
	// batch is handed to the worker (default 2048). Re-tuned for the flat
	// hash kernels: with per-update costs ~2× lower than the scalar-hash
	// paths, a larger batch halves handoff counts while the batch plus the
	// sketches' kernel scratch stays cache-resident; measured throughput is
	// flat from 512 to 8192 on the 10M-update ingest workload, so the
	// default favors fewer channel operations.
	BatchSize int
	// QueueDepth is the number of in-flight batches buffered per shard
	// channel; it bounds memory while letting the producer run ahead of a
	// momentarily slow shard (default 8). A full queue blocks the producer
	// until the shard's worker drains a batch.
	QueueDepth int
	// CheckpointEvery, with a store bound via CheckpointTo, writes a durable
	// generation after roughly this many accepted updates (checkpoints land
	// on batch boundaries). Zero means no periodic checkpoints: the store
	// still journals every batch write-ahead, and CheckpointNow remains
	// available.
	CheckpointEvery int
	// Injector, when non-nil, enables deterministic fault injection on the
	// engine's internal decision points (merge failures, worker panics) —
	// see internal/faultinject. Nil (the default) costs one predictable
	// branch per injection point.
	Injector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize < 1 {
		c.BatchSize = 2048
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 8
	}
	return c
}

// Stats is a point-in-time snapshot of the engine's operational counters,
// read from the producer goroutine via Engine.Stats.
type Stats struct {
	// Shards is the shard count.
	Shards int
	// Routed counts updates accepted so far.
	Routed int64
	// SpilledUpdates and Steals are leftovers, always zero: the spill policy
	// and work stealing they counted are gone, but bench/trace.go still
	// reads both fields and this PR could not touch bench/. They go with the
	// engine.spilled_updates / engine.steals ladder rows (ROADMAP, "One
	// benchmark, one gate").
	SpilledUpdates int64
	Steals         int64
	// Panics counts replica panics caught and quarantined by the shard
	// workers; Recoveries counts tainted shards whose exactness was
	// re-established by a checkpoint rollback.
	Panics     int64
	Recoveries int64
	// Checkpoints counts durable generations written via the bound store;
	// Generation is the store's current generation number (zero when no
	// store is bound).
	Checkpoints int64
	Generation  uint64
}

// shardSlot is the per-shard state bundle. The slot set, each slot's index
// and its channel are fixed at New.
//
// Ownership discipline (this is what makes the supervision fields safe
// without locks): replica, tainted, lost and absorbed are written by the
// owning worker only while it holds an in-flight batch token, and by the
// producer only after inflight.Wait() has drained every token — the
// WaitGroup edge plus the channel send/recv edge of the next handoff order
// all of it. A worker reads its own slot only after receiving a batch, so
// it never races a quiesced producer's writes.
type shardSlot[T stream.Sink] struct {
	idx     int
	replica T
	ch      chan []stream.Update
	pending []stream.Update
	// Supervision state, per the ownership discipline above.
	tainted  bool  // replica panicked; its updates are missing until rollback
	lost     int64 // updates discarded with quarantined replicas
	absorbed int64 // updates folded into replica since it was last (re)built
}

// Engine fans an update stream out to same-seed sketch replicas, one per
// shard, and produces the final sketch by merging them.
type Engine[T stream.Sink] struct {
	cfg      Config
	factory  func(shard int) T
	merge    func(dst, src T) error
	slots    []*shardSlot[T]
	pool     sync.Pool
	wg       sync.WaitGroup
	inflight sync.WaitGroup // batches handed off but not yet processed

	routed     int64
	panics     atomic.Int64 // written by workers, read anywhere
	recoveries int64        // producer-only

	durable durableState[T] // zero unless CheckpointTo bound a store

	done   bool
	result T
	err    error
}

// New builds the engine and starts its shard workers immediately. Every
// engine must be terminated with Results or Close — an abandoned engine
// leaks its worker goroutines, which block forever on their channels.
//
// factory(shard) must return one replica per shard, all built from
// identical seeds — sketch linearity makes the shard-then-merge reduction
// exact only for same-seed replicas, and the merge functions of this
// repository reject anything else. The engine calls it again for the same
// shard indices whenever it stages a fresh replica set (checkpoint adoption
// and rollback). merge folds src into dst.
//
// factory must additionally be safe for concurrent use: a shard worker
// invokes it to respawn a fresh replica when quarantining a panicked one.
// The factories in this repository qualify (each call builds its own
// seeded PRNG); a factory closing over shared mutable state would not.
func New[T stream.Sink](cfg Config, factory func(shard int) T, merge func(dst, src T) error) *Engine[T] {
	cfg = cfg.withDefaults()
	e := &Engine[T]{
		cfg:     cfg,
		factory: factory,
		merge:   merge,
		slots:   make([]*shardSlot[T], cfg.Shards),
	}
	e.pool.New = func() any { return make([]stream.Update, 0, cfg.BatchSize) }
	for s := range e.slots {
		e.slots[s] = &shardSlot[T]{
			idx:     s,
			replica: factory(s),
			ch:      make(chan []stream.Update, cfg.QueueDepth),
		}
		e.slots[s].pending = e.batchBuf()
	}
	e.wg.Add(cfg.Shards)
	for _, slot := range e.slots {
		go e.worker(slot)
	}
	return e
}

// mustOpen is the single use-after-termination guard on the hot ingest
// entry points. Feeding a terminal engine is a programming error, so it
// panics; the panic value is an error wrapping ErrEngineClosed so recovery
// sites can type-check it.
func (e *Engine[T]) mustOpen() {
	if e.done {
		panic(fmt.Errorf("engine: Process after Results/Close: %w", ErrEngineClosed))
	}
}

func (e *Engine[T]) batchBuf() []stream.Update {
	return e.pool.Get().([]stream.Update)[:0]
}

// consume runs one batch through the slot's replica and retires it. A
// panic out of the replica is quarantined here: the replica's state is
// indeterminate mid-batch, so it is discarded, a fresh same-seed replica
// takes its place, and the slot is marked tainted for the supervisor to
// re-establish exactness at the next quiesce barrier. The worker itself
// never dies — it keeps draining its queue — so a panic can never wedge
// the producer against a full channel.
func (e *Engine[T]) consume(slot *shardSlot[T], batch []stream.Update) {
	defer func() {
		if r := recover(); r != nil {
			e.panics.Add(1)
			slot.lost += slot.absorbed + int64(len(batch))
			slot.absorbed = 0
			slot.tainted = true
			slot.replica = e.factory(slot.idx)
		}
		e.pool.Put(batch[:0])
		e.inflight.Done()
	}()
	e.cfg.Injector.MaybePanic(faultinject.WorkerPanic)
	stream.ProcessAll(slot.replica, batch)
	slot.absorbed += int64(len(batch))
}

func (e *Engine[T]) worker(slot *shardSlot[T]) {
	defer e.wg.Done()
	for batch := range slot.ch {
		e.consume(slot, batch)
	}
}

// send hands one batch to a shard worker, tracking it for quiesce. A full
// queue blocks the producer here until the worker drains a batch — the
// engine's only backpressure.
func (e *Engine[T]) send(s int, batch []stream.Update) {
	e.inflight.Add(1)
	e.slots[s].ch <- batch
}

// mergeInto is merge plus the EngineMerge injection point, so chaos
// schedules can force fold failures at every place replicas combine.
func (e *Engine[T]) mergeInto(dst, src T) error {
	if err := e.cfg.Injector.Err(faultinject.EngineMerge); err != nil {
		return err
	}
	return e.merge(dst, src)
}

// shardOf routes a coordinate to its owning shard: a Fibonacci mix of the
// index (multiplication by 2^32/φ is a bijection on uint32 that spreads the
// small, dense indices of real streams across the full 32-bit range)
// followed by the same multiply-shift range reduction the hash kernels use
// (hash.Bucket). Two multiplies, no hardware divide — at sketch-kernel
// speeds the `index % S` divide would dominate the router. The mix step is
// essential: Lemire reduction of the raw index would send every index below
// 2^32/S to shard 0. Any fixed index → shard map is correct (linearity makes
// the reduction order-insensitive), and this one is deterministic and
// balanced for dense and sparse index distributions alike.
func (e *Engine[T]) shardOf(index int) int {
	const fib32 = 0x9E3779B9 // 2^32 / golden ratio, odd
	h := uint64(uint32(index) * fib32)
	return int((h * uint64(e.cfg.Shards)) >> 32)
}

// route appends the update to its shard's pending batch, handing the batch
// off once full.
func (e *Engine[T]) route(s int, u stream.Update) {
	slot := e.slots[s]
	p := append(slot.pending, u)
	slot.pending = p
	if len(p) == e.cfg.BatchSize {
		e.send(s, p)
		slot.pending = e.batchBuf()
	}
}

// Process implements stream.Sink: the update joins its shard's pending
// batch, which is handed off once full.
func (e *Engine[T]) Process(u stream.Update) {
	e.mustOpen()
	e.journalOne(u)
	e.route(e.shardOf(u.Index), u)
	e.routed++
	e.maybeCheckpoint(1)
}

// ProcessBatch implements stream.BatchSink: one done-check and one shard
// multiplier load for the whole batch instead of per update. With a single
// shard there is nothing to route, so whole runs of updates move into the
// pending batch with copy — at kernel speeds the per-update append would
// otherwise be the engine's dominant cost on one core.
func (e *Engine[T]) ProcessBatch(batch []stream.Update) {
	e.mustOpen()
	e.journalBatch(batch)
	n := len(batch)
	e.routed += int64(n)
	if e.cfg.Shards == 1 {
		for len(batch) > 0 {
			slot := e.slots[0]
			p := slot.pending
			c := copy(p[len(p):e.cfg.BatchSize], batch)
			p = p[:len(p)+c]
			batch = batch[c:]
			if len(p) == e.cfg.BatchSize {
				e.send(0, p)
				p = e.batchBuf()
			}
			slot.pending = p
		}
		e.maybeCheckpoint(n)
		return
	}
	for _, u := range batch {
		e.route(e.shardOf(u.Index), u)
	}
	e.maybeCheckpoint(n)
}

// Feed routes an entire stream through the engine.
func (e *Engine[T]) Feed(s stream.Stream) {
	e.ProcessBatch(s)
}

// Stats reports the engine's operational counters.
func (e *Engine[T]) Stats() Stats {
	st := Stats{
		Shards:      e.cfg.Shards,
		Routed:      e.routed,
		Panics:      e.panics.Load(),
		Recoveries:  e.recoveries,
		Checkpoints: e.durable.checkpoints,
	}
	if e.durable.store != nil {
		st.Generation = e.durable.store.Generation()
	}
	return st
}

// anyTainted reports whether some shard's replica was quarantined and
// exactness has not been re-established. Producer-only; the slot fields are
// safe to read at quiesce points and after shutdown.
func (e *Engine[T]) anyTainted() bool {
	for _, slot := range e.slots {
		if slot.tainted {
			return true
		}
	}
	return false
}

// Results flushes all pending batches, waits for the workers to drain, and
// merges every replica into shard 0's, which it returns: the sketch of the
// full vector, exactly as if one sketch had consumed the whole stream. The
// engine is terminal afterwards; further Process calls panic. Calling
// Results again returns the same result.
//
// If shard workers quarantined panicking replicas and a checkpoint store is
// bound, Results first rolls the engine back to the last durable generation
// plus the journal tail, so the result is still exact. Without a store (or
// when the rollback itself fails) Results returns the degraded merge of the
// surviving replicas together with a *PartialResultError naming the
// quarantined shards — a typed partial answer instead of a crash or a
// silent hole.
func (e *Engine[T]) Results() (T, error) {
	if e.done {
		return e.result, e.err
	}
	e.shutdown()
	if e.anyTainted() && e.durable.store != nil {
		if err := e.rollback(); err != nil {
			if e.durable.recoverErr == nil {
				e.durable.recoverErr = err
			}
		}
	}
	e.result = e.slots[0].replica
	for s := 1; s < len(e.slots); s++ {
		if err := e.mergeInto(e.result, e.slots[s].replica); err != nil {
			e.err = err
			break
		}
	}
	if e.err == nil && e.anyTainted() {
		e.err = e.partialError()
	}
	return e.result, e.err
}

// Close abandons ingestion without merging: pending batches are dropped,
// workers are joined, and the engine becomes terminal.
// Results after Close reports an error wrapping ErrEngineClosed. Close is
// idempotent and safe after Results.
func (e *Engine[T]) Close() {
	if e.done {
		return
	}
	for _, slot := range e.slots {
		slot.pending = slot.pending[:0]
	}
	e.shutdown()
	e.err = fmt.Errorf("engine: closed without results: %w", ErrEngineClosed)
}

func (e *Engine[T]) shutdown() {
	for _, slot := range e.slots {
		if len(slot.pending) > 0 {
			e.send(slot.idx, slot.pending)
		}
		close(slot.ch)
	}
	e.wg.Wait()
	e.done = true
}

// quiesce flushes every pending partial batch to its worker and blocks
// until all in-flight batches have been consumed. Afterwards the workers
// idle on their channels and the replicas are safe to read, replace or fold
// from the producer goroutine; ingestion may continue. Quiesce is also the
// supervision barrier: if any worker quarantined a panicked replica since
// the last barrier and a checkpoint store is bound, the engine rolls back
// to the store's last durable state here, re-establishing exactness before
// the caller looks at the replicas.
func (e *Engine[T]) quiesce() {
	for _, slot := range e.slots {
		if len(slot.pending) > 0 {
			e.send(slot.idx, slot.pending)
			slot.pending = e.batchBuf()
		}
	}
	e.inflight.Wait()
	if e.anyTainted() && e.durable.store != nil {
		if err := e.rollback(); err != nil {
			// Exactness could not be re-established; remember why, keep
			// running degraded. Results surfaces the taint as a typed
			// *PartialResultError carrying this cause.
			if e.durable.recoverErr == nil {
				e.durable.recoverErr = err
			}
		}
	}
}

// Snapshot checkpoints the engine mid-ingest: it quiesces the workers and
// returns marshal applied to every shard replica, in shard order. The
// engine keeps running — updates may continue to flow afterwards. The blobs,
// loaded and merged, equal the sketch of every update accepted so far.
//
// A tainted engine (quarantined replicas, no store to roll back from)
// refuses to snapshot: the blobs would encode the hole. The error is the
// same typed *PartialResultError Results would return.
func (e *Engine[T]) Snapshot(marshal func(replica T) ([]byte, error)) ([][]byte, error) {
	if e.done {
		return nil, fmt.Errorf("engine: Snapshot: %w", ErrEngineClosed)
	}
	e.quiesce()
	if e.anyTainted() {
		return nil, e.partialError()
	}
	out := make([][]byte, len(e.slots))
	for s, slot := range e.slots {
		b, err := marshal(slot.replica)
		if err != nil {
			return nil, fmt.Errorf("engine: snapshot of shard %d: %w", s, err)
		}
		out[s] = b
	}
	return out, nil
}

// installReplicas swaps a fully-built replica set into the slots and clears
// all supervision state — the old replicas (including any taint they
// carried) are discarded wholesale. Producer-only, workers quiesced.
func (e *Engine[T]) installReplicas(replicas []T) {
	for s, slot := range e.slots {
		if slot.tainted {
			e.recoveries++
		}
		slot.replica = replicas[s]
		slot.tainted = false
		slot.lost = 0
		slot.absorbed = 0
	}
	e.durable.recoverErr = nil
}
