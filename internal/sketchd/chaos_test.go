package sketchd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	streamsample "repro"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/stream"
)

// TestChaosServerFaultSeeds is the serving tier's chaos leg (run by `make
// chaos` under -race): a registry with a deterministic fault injector on
// its engine and checkpoint paths serves real HTTP traffic — raw frames and
// sketch uploads — while torn checkpoint writes, fsync errors, journal
// faults, merge failures and worker panics fire. The property:
//
//  1. no panic ever escapes to the client or the test,
//  2. every client-visible failure is the typed JSON envelope (never an
//     opaque crash or an untyped 500 string),
//  3. a schedule that happened to fire no faults on the request path must
//     leave the merged sketch byte-identical to serial ingestion,
//  4. after a drain, reopening the store either recovers a loadable sketch
//     or fails with a typed error — never silently serves garbage.
//
// REPRO_FAULTS=seed:rate replays one schedule.
func TestChaosServerFaultSeeds(t *testing.T) {
	type sched struct {
		seed uint64
		rate float64
	}
	var scheds []sched
	if env := os.Getenv(faultinject.EnvVar); env != "" {
		var seed uint64
		var rate float64
		if _, err := fmt.Sscanf(env, "%d:%g", &seed, &rate); err != nil {
			t.Fatalf("parsing %s=%q: %v", faultinject.EnvVar, env, err)
		}
		scheds = []sched{{seed, rate}}
	} else {
		count := 8
		if testing.Short() {
			count = 3
		}
		for s := 1; s <= count; s++ {
			scheds = append(scheds, sched{uint64(s), 0.02})
		}
	}
	for _, sc := range scheds {
		sc := sc
		t.Run(fmt.Sprintf("seed=%d", sc.seed), func(t *testing.T) {
			if msg := runServerChaos(t, sc.seed, sc.rate); msg != "" {
				t.Fatalf("%s\nreplay: %s=%d:%g", msg, faultinject.EnvVar, sc.seed, sc.rate)
			}
		})
	}
}

func runServerChaos(t *testing.T, seed uint64, rate float64) string {
	const n, parts = 256, 12
	st := testStream(n, 6000, seed)
	dir := filepath.Join(t.TempDir(), fmt.Sprintf("chaos-%d", seed))
	inj := faultinject.New(seed, rate)
	cfg := RegistryConfig{
		Dir:                   dir,
		CheckpointEvery:       500, // force the periodic checkpoint path under fire
		UploadCheckpointEvery: 2,   // and the upload-seal path
		FanIn:                 1,   // every upload is a leaf-to-root fold
		Injector:              inj,
	}
	reg, err := OpenRegistry(cfg)
	if err != nil {
		return fmt.Sprintf("virgin OpenRegistry failed: %v", err)
	}
	ts := httptest.NewServer(NewServer(reg))
	defer ts.Close()
	c := NewClient(ts.URL, sketchRetry())

	ctx := context.Background()
	if err := c.Create(ctx, "chaos", "s", Spec{Kind: "l0", N: n, Seed: seed}); err != nil {
		// Create runs CheckpointTo against the injected store — a typed
		// failure here is a legitimate schedule outcome.
		if !typedEnvelope(err) {
			return fmt.Sprintf("create failed untyped: %v", err)
		}
		reg.Drain() //nolint:errcheck // chaos teardown
		return ""
	}

	anyErr := false
	for i := 0; i < parts; i++ {
		var slice stream.Stream
		for j := i; j < len(st); j += parts {
			slice = append(slice, st[j])
		}
		var err error
		if i%2 == 0 {
			_, err = c.PushUpdates(ctx, "chaos", "s", slice)
		} else {
			local := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
			local.ProcessBatch(slice)
			blob, merr := local.MarshalBinary()
			if merr != nil {
				return fmt.Sprintf("local marshal: %v", merr)
			}
			err = c.PushSketch(ctx, "chaos", "s", blob, false)
		}
		if err != nil {
			anyErr = true
			if !typedEnvelope(err) {
				return fmt.Sprintf("part %d failed untyped: %v", i, err)
			}
		}
	}

	got, err := c.Bytes(ctx, "chaos", "s")
	switch {
	case err != nil:
		anyErr = true
		if !typedEnvelope(err) {
			return fmt.Sprintf("query failed untyped: %v", err)
		}
	case !anyErr:
		// A fault-free schedule (at this rate, many are) must be exact.
		serial := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
		serial.ProcessBatch(st)
		want, merr := serial.MarshalBinary()
		if merr != nil {
			return fmt.Sprintf("serial marshal: %v", merr)
		}
		if !bytes.Equal(got, want) {
			return "fault-free schedule produced a merged sketch that differs from serial"
		}
	default:
		// Faults fired somewhere; the bytes must still LOAD — degraded,
		// never garbage.
		if _, lerr := streamsample.Load(got); lerr != nil {
			return fmt.Sprintf("served bytes do not load: %v", lerr)
		}
	}

	drainErr := reg.Drain()
	ts.Close()

	// Reopen without the injector: recovery from whatever the schedule left
	// on disk either works, refuses with a typed error, or quarantines the
	// damaged entry — but a clean run must recover, and damage must never
	// be silent.
	cfg.Injector = nil
	reg2, err := OpenRegistry(cfg)
	if err != nil {
		if drainErr == nil && !anyErr {
			return fmt.Sprintf("clean run but reopen failed: %v", err)
		}
		return "" // a faulted store may be legitimately unrecoverable, as long as it says so
	}
	defer reg2.Drain() //nolint:errcheck // chaos teardown
	e, err := reg2.Get("chaos", "s")
	if err != nil {
		st, _ := reg2.Statsz()
		if st.Quarantined > 0 && (drainErr != nil || anyErr) {
			return "" // unrecoverable entry was quarantined, visibly, after real faults
		}
		return fmt.Sprintf("recovered registry lost the sketch: %v", err)
	}
	merged, err := e.Merged()
	if err != nil {
		return fmt.Sprintf("recovered sketch does not merge: %v", err)
	}
	if _, err := merged.MarshalBinary(); err != nil {
		return fmt.Sprintf("recovered sketch does not marshal: %v", err)
	}
	return ""
}

func sketchRetry() ClientOption {
	return WithRetryPolicy(retry.Policy{Attempts: 2})
}

// typedEnvelope reports whether err carries the structured wire error —
// the chaos property that no failure reaches the client as a transport
// crash (a handler panic kills the connection and fails errors.As here).
func typedEnvelope(err error) bool {
	var se *Error
	if !errors.As(err, &se) {
		return false
	}
	return se.Code != "" && se.Message != ""
}
