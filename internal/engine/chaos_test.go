package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/stream"
)

// TestChaosFaultSeeds is the chaos property the CI `make chaos` leg sweeps
// under -race: an engine with periodic durable checkpoints ingests a random
// stream while a deterministic injector fires faults at EVERY injection
// point — worker panics, merge failures, torn checkpoint writes, fsync
// errors, bit flips, journal append failures, decode faults. The
// property: the run either ends exact (byte-identical to serial) or fails
// with a typed error. Crashes, hangs, silent corruption and untyped errors
// are the bugs this hunts.
//
// REPRO_FAULTS=seed:rate reruns a single failing schedule; the failure
// message prints that one-liner.
func TestChaosFaultSeeds(t *testing.T) {
	type sched struct {
		seed uint64
		rate float64
	}
	var scheds []sched
	if env := os.Getenv(faultinject.EnvVar); env != "" {
		inj, err := faultinject.FromEnv()
		if err != nil {
			t.Fatal(err)
		}
		_ = inj // the seed/rate are re-parsed below so the schedule is explicit
		var seed uint64
		var rate float64
		if _, err := fmt.Sscanf(env, "%d:%g", &seed, &rate); err != nil {
			t.Fatalf("parsing %s=%q: %v", faultinject.EnvVar, env, err)
		}
		scheds = []sched{{seed, rate}}
	} else {
		count := 10
		if testing.Short() {
			count = 3
		}
		for s := 1; s <= count; s++ {
			scheds = append(scheds, sched{uint64(s), 0.02})
		}
	}
	for _, sc := range scheds {
		if msg := runChaosSchedule(t, sc.seed, sc.rate); msg != "" {
			t.Fatalf("fault seed %d: %s\nrepro: %s=%d:%s go test -race -run 'TestChaosFaultSeeds' ./internal/engine",
				sc.seed, msg, faultinject.EnvVar, sc.seed, strconv.FormatFloat(sc.rate, 'g', -1, 64))
		}
	}
}

// typedChaosOutcome reports whether err is one of the contracted error
// types a chaos run may legitimately end with.
func typedChaosOutcome(err error) bool {
	var pe *PartialResultError
	var ie *faultinject.InjectedErr
	return errors.As(err, &pe) || errors.As(err, &ie) ||
		errors.Is(err, checkpoint.ErrNoCheckpoint) ||
		errors.Is(err, checkpoint.ErrGenerationGap) ||
		errors.Is(err, checkpoint.ErrTornWrite) ||
		errors.Is(err, codec.ErrBadRecord)
}

func runChaosSchedule(t *testing.T, seed uint64, rate float64) string {
	const n, length = 256, 8000
	rng := rand.New(rand.NewPCG(seed, seed^0xA5A5))
	st := stream.RandomTurnstile(n, length, 40, rng)
	factory := l0Factory(n)

	serial := factory(0)
	st.Feed(serial)

	inj := faultinject.New(seed, rate)
	store, err := checkpoint.Open(t.TempDir(), checkpoint.Options{
		Keep:     8, // keep the journal chain long enough to survive corrupt generations
		Injector: inj,
		Retry:    retry.Policy{Attempts: 4, Sleep: noSleep},
	})
	if err != nil {
		return fmt.Sprintf("opening store: %v", err)
	}
	defer store.Close()

	eng := New(Config{
		Shards: 4, BatchSize: 32, QueueDepth: 2,
		CheckpointEvery: 2000,
		Injector:        inj,
	}, factory, l0Merge)

	durable := true
	if err := eng.CheckpointTo(store, l0Marshal, l0Restore); err != nil {
		if !typedChaosOutcome(err) {
			eng.Close()
			return fmt.Sprintf("CheckpointTo failed untyped: %v", err)
		}
		durable = false // injected bind failure; run stays in-memory only
	}

	// Feed in chunks: periodic checkpoints are taken between ProcessBatch
	// calls, so one call for the whole stream would write a single one.
	for i := 0; i < length; i += 1000 {
		eng.ProcessBatch(st[i : i+1000])
	}

	merged, err := eng.Results()
	if err != nil {
		if !typedChaosOutcome(err) {
			return fmt.Sprintf("Results failed untyped: %v", err)
		}
		return ""
	}
	// A clean Results must be exact — faults may only cost latency or end
	// in a typed error, never silently change answers.
	if !bytes.Equal(l0State(merged), l0State(serial)) {
		st := eng.Stats()
		return fmt.Sprintf("clean Results is NOT exact (panics=%d recoveries=%d durable=%v injected=%d)",
			st.Panics, st.Recoveries, durable, inj.Fired())
	}
	return ""
}

// TestChaosWithoutStore runs the same sweep with no durability at all: the
// contract degrades to "typed partial results, never a crash or a silent
// hole" — a clean Results with panics recorded would be exactly such a
// hole, so it must not happen.
func TestChaosWithoutStore(t *testing.T) {
	count := 6
	if testing.Short() {
		count = 2
	}
	for seed := uint64(1); seed <= uint64(count); seed++ {
		const n, length = 128, 4000
		st := stream.RandomTurnstile(n, length, 20, rand.New(rand.NewPCG(seed, 3)))
		factory := func(int) *core.L0Sampler {
			return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2},
				rand.New(rand.NewPCG(99, 98)))
		}
		inj := faultinject.New(seed, 0.03).Only(faultinject.WorkerPanic)
		eng := New(Config{Shards: 3, BatchSize: 16, QueueDepth: 2, Injector: inj}, factory, l0Merge)
		eng.ProcessBatch(st)
		_, err := eng.Results()
		panics := eng.Stats().Panics
		var pe *PartialResultError
		switch {
		case err == nil && panics > 0:
			t.Fatalf("seed %d: %d panics but Results claims a clean result", seed, panics)
		case err != nil && !errors.As(err, &pe):
			t.Fatalf("seed %d: untyped Results error: %v", seed, err)
		}
	}
}
