package engine

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/distinct"
	"repro/internal/duplicates"
	"repro/internal/heavyhitters"
	"repro/internal/stream"
)

func seeded(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9E3779B97F4A7C15))
}

// csFactory builds same-seed count-sketch replicas; csMerge folds them.
func csFactory(seed uint64) func(int) *countsketch.Sketch {
	return func(int) *countsketch.Sketch { return countsketch.New(64, 5, seeded(seed)) }
}

func csMerge(dst, src *countsketch.Sketch) error { return dst.Merge(src) }

// csCells is a count-sketch's whole cell array, row-major. Fed integer
// deltas, every cell is a float64 sum of integers far below 2^53, which no
// summation order can round, so sharded and serial cells agree byte for byte.
func csCells(s *countsketch.Sketch) []byte {
	var e codec.Encoder
	s.AppendState(&e)
	return e.Bytes()
}

// TestCountSketchShardedCellsMatchSerial: over integer deltas the
// shard-then-merge reduction is bit-exact, so the merged cells equal the
// serial sink's, and every accepted update is counted as routed.
func TestCountSketchShardedCellsMatchSerial(t *testing.T) {
	const n, length = 512, 20000
	st := stream.RandomTurnstile(n, length, 50, seeded(1))

	serial := csFactory(42)(0)
	st.Feed(serial)

	eng := New(Config{Shards: 4, BatchSize: 128}, csFactory(42), csMerge)
	eng.Feed(st)
	merged, err := eng.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if !bytes.Equal(csCells(merged), csCells(serial)) {
		t.Fatal("sharded cells differ from the serial sketch's")
	}
	if got := eng.Stats().Routed; got != int64(length) {
		t.Fatalf("routed %d updates, want %d", got, length)
	}
}

// TestCountSketchShardedMatchesSerial: with integer deltas every cell is an
// integer-valued float sum, so estimates match the serial sketch exactly.
func TestCountSketchShardedMatchesSerial(t *testing.T) {
	const n = 256
	st := stream.RandomTurnstile(n, 8000, 100, seeded(2))

	serial := countsketch.New(8, 7, seeded(43))
	st.Feed(serial)

	eng := New(Config{Shards: 3, BatchSize: 64},
		func(int) *countsketch.Sketch { return countsketch.New(8, 7, seeded(43)) },
		func(dst, src *countsketch.Sketch) error { return dst.Merge(src) })
	eng.Feed(st)
	merged, err := eng.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	for i := 0; i < n; i++ {
		if got, want := merged.Estimate(uint64(i)), serial.Estimate(uint64(i)); got != want {
			t.Fatalf("coordinate %d: sharded %v != serial %v", i, got, want)
		}
	}
}

// TestL0ShardedMatchesSerialState: the strongest form of correctness — the
// merged L0 sampler's linear measurements are byte-identical to a serial
// same-seed sampler's, so every downstream query behaves identically.
func TestL0ShardedMatchesSerialState(t *testing.T) {
	const n = 512
	st := stream.SparseVector(n, 30, 1000, seeded(3))

	serial := core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(44))
	st.Feed(serial)

	eng := New(Config{Shards: 4, BatchSize: 32},
		func(int) *core.L0Sampler { return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, seeded(44)) },
		func(dst, src *core.L0Sampler) error { return dst.Merge(src) })
	eng.Feed(st)
	merged, err := eng.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		t.Fatal("merged L0 state differs from serial state")
	}
	wOut, wOK := serial.Sample()
	mOut, mOK := merged.Sample()
	if wOK != mOK || wOut != mOut {
		t.Fatalf("merged sample (%v,%v) != serial (%v,%v)", mOut, mOK, wOut, wOK)
	}
}

// TestDistinctShardedMatchesSerial: field fingerprints add exactly, so the
// sharded estimate equals the serial one.
func TestDistinctShardedMatchesSerial(t *testing.T) {
	const n = 1024
	st := stream.SparseVector(n, 200, 10, seeded(4))

	serial := distinct.New(n, 12, seeded(45))
	st.Feed(serial)

	eng := New(Config{Shards: 5, BatchSize: 256},
		func(int) *distinct.Estimator { return distinct.New(n, 12, seeded(45)) },
		func(dst, src *distinct.Estimator) error { return dst.Merge(src) })
	eng.Feed(st)
	merged, err := eng.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	if got, want := merged.Estimate(), serial.Estimate(); got != want {
		t.Fatalf("sharded estimate %d != serial %d", got, want)
	}
}

// TestHeavyHittersSharded: a strongly separated instance — the merged sketch
// must report the planted heavy coordinate and nothing from the light mass.
func TestHeavyHittersSharded(t *testing.T) {
	const n = 256
	var st stream.Stream
	st = append(st, stream.Update{Index: 17, Delta: 100000})
	for i := 0; i < n; i++ {
		st = append(st, stream.Update{Index: i, Delta: int64(1 + i%3)})
	}

	cfg := heavyhitters.Config{P: 1, Phi: 0.3, N: n}
	eng := New(Config{Shards: 4, BatchSize: 16},
		func(int) *heavyhitters.Sketch { return heavyhitters.New(cfg, seeded(46)) },
		func(dst, src *heavyhitters.Sketch) error { return dst.Merge(src) })
	eng.Feed(st)
	merged, err := eng.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	report := merged.HeavyHitters()
	if len(report) != 1 || report[0] != 17 {
		t.Fatalf("sharded heavy hitters = %v, want [17]", report)
	}
}

// TestDuplicateFinderSharded: each shard replica feeds its own pigeonhole
// prefix; Finder.Merge compensates, so the engine result behaves like one
// finder that saw the whole letter stream.
func TestDuplicateFinderSharded(t *testing.T) {
	const n = 200
	const trials = 10
	ok, correct := 0, 0
	for trial := 0; trial < trials; trial++ {
		r := seeded(uint64(100 + trial))
		dup := r.IntN(n)
		items := stream.DuplicateItems(n, dup, r)

		seed := uint64(200 + trial)
		eng := New(Config{Shards: 3, BatchSize: 64},
			func(int) *duplicates.Finder { return duplicates.NewFinder(n, 0.2, seeded(seed)) },
			func(dst, src *duplicates.Finder) error { return dst.Merge(src) })
		eng.Feed(items.Updates())
		merged, err := eng.Results()
		if err != nil {
			t.Fatalf("Results: %v", err)
		}
		res := merged.Find()
		if res.Kind != duplicates.Duplicate {
			continue
		}
		ok++
		if res.Index == dup {
			correct++
		}
	}
	if ok < trials/2 {
		t.Errorf("sharded finder succeeded %d/%d times, want >= %d", ok, trials, trials/2)
	}
	if correct < ok-1 {
		t.Errorf("only %d/%d successes named the true duplicate", correct, ok)
	}
}

// TestMismatchedSeedsRejected: replicas that do not share randomness must be
// refused at the merge stage with an error, not silently combined.
func TestMismatchedSeedsRejected(t *testing.T) {
	eng := New(Config{Shards: 4},
		func(shard int) *countsketch.Sketch { return countsketch.New(32, 4, seeded(uint64(shard))) },
		csMerge)
	eng.Feed(stream.RandomTurnstile(64, 1000, 10, seeded(5)))
	if _, err := eng.Results(); err == nil {
		t.Fatal("expected mismatched-seed replicas to be rejected")
	}
}

func TestEngineLifecycle(t *testing.T) {
	eng := New(Config{Shards: 2, BatchSize: 8}, csFactory(6), csMerge)
	eng.Feed(stream.RandomTurnstile(32, 100, 5, seeded(7)))

	first, err := eng.Results()
	if err != nil {
		t.Fatalf("Results: %v", err)
	}
	second, err := eng.Results()
	if err != nil || second != first {
		t.Fatal("Results must be idempotent")
	}

	defer func() {
		if recover() == nil {
			t.Error("Process after Results must panic")
		}
	}()
	eng.Process(stream.Update{Index: 1, Delta: 1})
}

func TestEngineCloseWithoutResults(t *testing.T) {
	eng := New(Config{Shards: 2}, csFactory(8), csMerge)
	eng.Process(stream.Update{Index: 1, Delta: 1})
	eng.Close()
	eng.Close() // idempotent
	if _, err := eng.Results(); err == nil {
		t.Fatal("Results after Close must report an error")
	}
}
