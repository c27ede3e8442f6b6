package sketchd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	streamsample "repro"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/stream"
)

// TestCreateRejectedLeavesNoDurableState: a rejected create must leave zero
// trace on disk — the historical bug wrote meta.json before validating the
// spec, so one bad PUT left a durable entry recovery could never rebuild
// and the server could never restart.
func TestCreateRejectedLeavesNoDurableState(t *testing.T) {
	dir := t.TempDir()
	cfg := RegistryConfig{Dir: dir}
	reg, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range append([]Spec{
		{Kind: "nope", N: 100},
		{Kind: "l0", N: 0},
		{Kind: "lp", N: 100, P: 7},
	}, hostileSpecs...) {
		if err := reg.Create("t", "bad", spec); err == nil {
			t.Fatalf("create %+v accepted, want rejection", spec)
		}
		if _, err := os.Stat(reg.entryDir("t", "bad")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("rejected create %+v left durable state on disk (stat err = %v)", spec, err)
		}
	}
	// A good sketch still registers, drains, and the whole registry reopens.
	if err := reg.Create("t", "good", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drain(); err != nil {
		t.Fatal(err)
	}
	reg2, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatalf("reopen after rejected creates: %v", err)
	}
	defer reg2.Drain() //nolint:errcheck // teardown
	if _, err := reg2.Get("t", "good"); err != nil {
		t.Fatalf("good sketch not recovered: %v", err)
	}
	if _, err := reg2.Get("t", "bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected sketch resurrected: err = %v", err)
	}
}

// TestCreateLateFailureCleansUp: when the spec is valid but wiring the
// entry fails AFTER meta.json landed (here: a regular file squatting where
// the engine store directory must go), the half-created directory is
// removed again so recovery never meets it.
func TestCreateLateFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	cfg := RegistryConfig{Dir: dir}
	reg, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Drain() //nolint:errcheck // teardown
	entryDir := reg.entryDir("t", "s")
	if err := os.MkdirAll(entryDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(entryDir, "engine"), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err == nil {
		t.Fatal("create over a squatted engine path succeeded, want failure")
	}
	if _, err := os.Stat(entryDir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed create left %s behind (stat err = %v)", entryDir, err)
	}
}

// TestRecoveryQuarantinesCorruptEntry: one tenant's unrecoverable on-disk
// entry must not keep the whole registry (every other tenant) from opening
// — it is moved to the quarantine tree, visibly counted, never silent.
func TestRecoveryQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	cfg := RegistryConfig{Dir: dir}
	reg, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("t", "good", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("t", "bad", Spec{Kind: "l0", N: 64, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(reg.entryDir("t", "bad"), "meta.json"), []byte("{corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatalf("reopen with one corrupt entry failed for the whole registry: %v", err)
	}
	defer reg2.Drain() //nolint:errcheck // teardown
	if _, err := reg2.Get("t", "good"); err != nil {
		t.Fatalf("healthy sketch not recovered: %v", err)
	}
	if _, err := reg2.Get("t", "bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt sketch served: err = %v", err)
	}
	st, _ := reg2.Statsz()
	if st.Quarantined != 1 || st.Recovered != 1 {
		t.Fatalf("stats = %+v, want quarantined=1 recovered=1", st)
	}
	qdir := filepath.Join(dir, "quarantine", "t", "bad")
	if _, err := os.Stat(filepath.Join(qdir, "QUARANTINE")); err != nil {
		t.Fatalf("quarantined state missing its reason file: %v", err)
	}
}

// TestRecoveryFinishesTombstonedDelete: a tombstoned entry directory is an
// acknowledged delete whose removal was interrupted — recovery finishes the
// removal instead of resurrecting the sketch.
func TestRecoveryFinishesTombstonedDelete(t *testing.T) {
	dir := t.TempDir()
	cfg := RegistryConfig{Dir: dir}
	reg, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Create("t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(reg.entryDir("t", "s"), tombstoneFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Drain() //nolint:errcheck // teardown
	if _, err := reg2.Get("t", "s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("tombstoned sketch resurrected: err = %v", err)
	}
	if _, err := os.Stat(reg2.entryDir("t", "s")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tombstoned dir survived recovery (stat err = %v)", err)
	}
	// And a fresh create of the same name works on clean ground.
	if err := reg2.Create("t", "s", Spec{Kind: "l0", N: 64, Seed: 9}); err != nil {
		t.Fatalf("recreate after finished delete: %v", err)
	}
}

// TestDeleteRemovesDurableStateBeforeUnregistering: after a successful
// Delete nothing remains on disk, so a restart cannot resurrect the sketch.
func TestDeleteRemovesDurableStateBeforeUnregistering(t *testing.T) {
	dir := t.TempDir()
	cfg := RegistryConfig{Dir: dir}
	reg, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Drain() //nolint:errcheck // teardown
	if err := reg.Create("t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := reg.Get("t", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestRaw([]stream.Update{{Index: 1, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("t", "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(reg.entryDir("t", "s")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("delete left durable state (stat err = %v)", err)
	}
	reg2, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Drain() //nolint:errcheck // teardown
	if _, err := reg2.Get("t", "s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted sketch resurrected at restart: err = %v", err)
	}
}

// TestIngestSketchDeleteRace drives concurrent uploads against a Delete
// (run under -race by CI): no upload may be acknowledged after the entry's
// tree was discarded — once Delete returns, every new upload is a clean
// typed ErrNotFound, never a silent fold into dead state.
func TestIngestSketchDeleteRace(t *testing.T) {
	reg, err := OpenRegistry(RegistryConfig{FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Drain() //nolint:errcheck // teardown
	const n = 64
	if err := reg.Create("t", "s", Spec{Kind: "l0", N: n, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := reg.Get("t", "s")
	if err != nil {
		t.Fatal(err)
	}
	local := streamsample.NewL0Sampler(n, streamsample.WithSeed(1))
	local.Update(3, 1)
	blob, err := local.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := e.IngestSketch(blob, false, 1<<30); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("upload err = %v, want nil or ErrNotFound", err)
					return
				}
			}
		}()
	}
	close(start)
	if err := reg.Delete("t", "s"); err != nil {
		t.Fatal(err)
	}
	// Delete has returned: the flag is set, so every subsequent upload must
	// see it.
	if _, err := e.IngestSketch(blob, false, 1<<30); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-delete upload err = %v, want ErrNotFound", err)
	}
	wg.Wait()
}

// TestUploadSealedReporting: the upload ACK's "sealed" field must reflect
// whether a durable seal actually happened — never true on a registry with
// no durable dir, where a checkpoint is a no-op and the upload dies with a
// SIGKILL regardless of ?durable=1.
func TestUploadSealedReporting(t *testing.T) {
	local := streamsample.NewL0Sampler(64, streamsample.WithSeed(1))
	local.Update(3, 1)
	blob, err := local.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	push := func(t *testing.T, ts *httptest.Server) (accepted, sealed bool) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/tenants/t/sketches/s/sketches?durable=1",
			"application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status = %d", resp.StatusCode)
		}
		var body struct {
			Accepted bool `json:"accepted"`
			Sealed   bool `json:"sealed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Accepted, body.Sealed
	}
	checkpointSealed := func(t *testing.T, ts *httptest.Server) bool {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/tenants/t/sketches/s/checkpoint", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Sealed bool `json:"sealed"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Sealed
	}

	t.Run("ephemeral", func(t *testing.T) {
		ts, c := newTestServer(t, RegistryConfig{})
		if err := c.Create(context.Background(), "t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		accepted, sealed := push(t, ts)
		if !accepted || sealed {
			t.Fatalf("ephemeral durable=1 ACK = (accepted=%v, sealed=%v), want (true, false)", accepted, sealed)
		}
		if checkpointSealed(t, ts) {
			t.Fatal("ephemeral checkpoint reported sealed=true")
		}
	})
	t.Run("durable", func(t *testing.T) {
		ts, c := newTestServer(t, RegistryConfig{Dir: t.TempDir()})
		if err := c.Create(context.Background(), "t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		accepted, sealed := push(t, ts)
		if !accepted || !sealed {
			t.Fatalf("durable durable=1 ACK = (accepted=%v, sealed=%v), want (true, true)", accepted, sealed)
		}
		if !checkpointSealed(t, ts) {
			t.Fatal("durable checkpoint reported sealed=false")
		}
	})
}

// TestStatszRawUpdatesConsistentOnFrameError: a stream that dies on a bad
// frame keeps its already-accepted batches — and the registry-level and
// per-sketch raw_updates counters must agree about them.
func TestStatszRawUpdatesConsistentOnFrameError(t *testing.T) {
	ts, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	const n = 64
	if err := c.Create(ctx, "t", "s", Spec{Kind: "l0", N: n, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// One good 3-update frame, then a frame cut off mid-payload.
	body := AppendFrame(nil, []stream.Update{{Index: 1, Delta: 1}, {Index: 2, Delta: 1}, {Index: 3, Delta: -1}})
	bad := AppendFrame(nil, []stream.Update{{Index: 4, Delta: 1}})
	body = append(body, bad[:len(bad)-3]...)
	resp, err := http.Post(ts.URL+"/v1/tenants/t/sketches/s/updates", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("truncated stream accepted")
	}
	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var perSketch int64
	for _, s := range st.Sketches {
		perSketch += s.RawUpdates
	}
	if st.Registry.RawUpdates != perSketch {
		t.Fatalf("registry raw_updates = %d, per-sketch sum = %d — counters diverged on a mid-stream error",
			st.Registry.RawUpdates, perSketch)
	}
	if perSketch != 3 {
		t.Fatalf("accepted updates = %d, want the 3 from the good frame", perSketch)
	}
}

// TestRegistryFootprint bounds what one served sketch costs the process: 64
// L0 sketches at n = 2^16, each fed 8 frames of 256 updates and queried
// once, must add exactly one goroutine apiece (the engine's one worker) and
// stay under a heap budget per sketch. Not parallel: it reads process-wide
// counters.
func TestRegistryFootprint(t *testing.T) {
	const sketches, frames, frameLen, n = 64, 8, 256, 1 << 16
	const heapPerSketch = 150 << 10
	reg, err := OpenRegistry(RegistryConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Drain() //nolint:errcheck // teardown
	st := testStream(n, frames*frameLen, 3)

	// Earlier tests' connections wind down asynchronously; start from a
	// goroutine count that has stopped moving.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		now := runtime.NumGoroutine()
		if now == before {
			break
		}
		before = now
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBefore := ms.HeapInuse

	for i := 0; i < sketches; i++ {
		name := fmt.Sprintf("s%d", i)
		if err := reg.Create("t", name, Spec{Kind: "l0", N: n, Delta: 0.2, Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		e, err := reg.Get("t", name)
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < frames; f++ {
			if err := e.IngestRaw(st[f*frameLen : (f+1)*frameLen]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Merged(); err != nil {
			t.Fatal(err)
		}
	}

	goroutines := runtime.NumGoroutine() - before
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := (int64(ms.HeapInuse) - int64(heapBefore)) / sketches
	t.Logf("per sketch: %.2f goroutines, %.1f KiB HeapInuse", float64(goroutines)/sketches, float64(per)/1024)
	if goroutines != sketches {
		t.Errorf("%d sketches added %d goroutines, want one each", sketches, goroutines)
	}
	if per > heapPerSketch {
		t.Errorf("HeapInuse grew %d KiB per sketch, want at most %d KiB", per>>10, heapPerSketch>>10)
	}
}

// TestRegistryRecoversWiderEngineState: a data directory whose engine store
// holds generations of four blobs (an engine run with four shards) plus a
// journal tail reopens into the registry's one-shard engine and answers
// byte-identically to serial ingestion of the same stream.
func TestRegistryRecoversWiderEngineState(t *testing.T) {
	const n, seed, length, split = 1024, 8, 6000, 4500
	dir := t.TempDir()
	spec := Spec{Kind: "l0", N: n, Seed: seed}
	st := testStream(n, length, seed)

	zero, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	specBytes, err := zero.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	factory := func(int) streamsample.Sketch {
		s, err := streamsample.Load(specBytes)
		if err != nil {
			panic(err)
		}
		return s
	}
	entryDir := filepath.Join(dir, "tenants", "t", "s")
	store, err := checkpoint.Open(filepath.Join(entryDir, "engine"), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide := engine.New(engine.Config{Shards: 4, CheckpointEvery: 1000}, factory, mergeSketch)
	if err := wide.CheckpointTo(store, marshalSketch, restoreSketch); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < split; lo += 256 {
		wide.ProcessBatch(st[lo:min(lo+256, split)])
	}
	wide.Close() // a crash: no final generation, the journal keeps the tail
	store.Close()
	meta, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(entryDir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}

	store, err = checkpoint.Open(filepath.Join(entryDir, "engine"), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store.Latest()
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.States) != 4 || rec.TailUpdates == 0 {
		t.Fatalf("fixture has %d blobs and a %d-update tail, want 4 blobs and a non-empty tail",
			len(rec.States), rec.TailUpdates)
	}

	reg, err := OpenRegistry(RegistryConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Drain() //nolint:errcheck // teardown
	e, err := reg.Get("t", "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestRaw(st[split:]); err != nil {
		t.Fatal(err)
	}
	merged, err := e.Merged()
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	serial := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
	serial.ProcessBatch(st)
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("registry recovered from a four-shard store differs from serial ingestion")
	}
}
