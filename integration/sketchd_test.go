package integration

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"

	streamsample "repro"
	"repro/internal/checkpoint"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// buildBinary compiles one cmd/ package into dir and returns the binary
// path.
func buildBinary(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/%s: %v\n%s", name, err, out)
	}
	return bin
}

// startSketchd launches the real sketchd binary on a kernel-picked loopback
// port and returns its base URL plus the running process. The first stdout
// line carries the bound address by contract.
func startSketchd(t *testing.T, bin string, args ...string) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting sketchd: %v", err)
	}
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Process.Kill() //nolint:errcheck // startup failed
		t.Fatal("sketchd produced no startup line")
	}
	line := sc.Text()
	const prefix = "sketchd: listening on "
	if !strings.HasPrefix(line, prefix) {
		cmd.Process.Kill() //nolint:errcheck // startup failed
		t.Fatalf("unexpected startup line %q", line)
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // drain so the child never blocks on a full pipe
	return "http://" + strings.TrimPrefix(line, prefix), cmd
}

func stopProcess(cmd *exec.Cmd) {
	if cmd.Process != nil {
		cmd.Process.Kill() //nolint:errcheck // teardown
		cmd.Wait()         //nolint:errcheck // teardown
	}
}

// TestSketchdLoadAgreement is the acceptance run: the real sketchd binary
// takes 10k+ simulated concurrent exporters through the real sketchload
// binary, and the merged sketch must agree with serial single-process
// ingestion — byte-identical state and equal samples (sketchload -verify
// enforces both; exact, because the kinds are linear).
func TestSketchdLoadAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary exec test in -short mode")
	}
	dir := t.TempDir()
	sketchdBin := buildBinary(t, dir, "sketchd")
	loadBin := buildBinary(t, dir, "sketchload")

	// The fan-in is set low relative to the upload-seal cadence so the
	// hierarchical path genuinely engages: leaves fill, detach, and fold
	// into the root (asserted below), instead of every upload being flushed
	// straight through by an early seal.
	addr, server := startSketchd(t, sketchdBin, "-data", filepath.Join(dir, "state"),
		"-fanin", "8", "-upload-checkpoint-every", "4096")
	defer stopProcess(server)

	exporters := "10000"
	length := "200000"
	if os.Getenv("SERVE_E2E_SMOKE") != "" {
		exporters, length = "500", "50000" // CI smoke leg: same path, lighter load
	}
	for _, mode := range []string{"sketch", "raw"} {
		ex := exporters
		if mode == "raw" {
			ex = "1000" // raw mode ships frames, not folded sketches; fewer exporters, same updates
		}
		load := exec.Command(loadBin,
			"-addr", addr, "-mode", mode, "-exporters", ex, "-concurrency", "128",
			"-n", "1024", "-len", length, "-seed", "7", "-verify",
			"-tenant", "load", "-name", "agree-"+mode)
		out, err := load.CombinedOutput()
		if err != nil {
			t.Fatalf("sketchload -mode %s: %v\n%s", mode, err, out)
		}
		if !strings.Contains(string(out), "verify OK") {
			t.Fatalf("sketchload -mode %s did not verify:\n%s", mode, out)
		}
		if mode == "sketch" {
			m := regexp.MustCompile(`leaf_folds=(\d+)`).FindStringSubmatch(string(out))
			if m == nil || m[1] == "0" {
				t.Fatalf("sketch mode did not exercise the hierarchical merge tree:\n%s", out)
			}
		}
		t.Logf("mode %s:\n%s", mode, out)
	}
}

// TestSketchdKillRestartDurability is the crash acceptance run: SIGKILL the
// server binary during sustained raw ingest, then prove no silent loss —
// the restarted server's merged sketch must be byte-identical to what the
// checkpoint store's last sealed generation plus journal tail reconstruct
// offline.
func TestSketchdKillRestartDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary exec test in -short mode")
	}
	dir := t.TempDir()
	sketchdBin := buildBinary(t, dir, "sketchd")
	dataDir := filepath.Join(dir, "state")

	addr, server := startSketchd(t, sketchdBin, "-data", dataDir, "-checkpoint-every", "512")
	defer stopProcess(server)

	const n, seed = 2048, 13
	ctx := context.Background()
	client := sketchd.NewClient(addr)
	if err := client.Create(ctx, "t", "s", sketchd.Spec{Kind: "l0", N: n, Seed: seed}); err != nil {
		t.Fatalf("create: %v", err)
	}

	// Sustained ingest: many small pushes so the kill lands between ACKs
	// with journal appends and periodic generation seals both in flight.
	// The batch size (170) does not divide the checkpoint interval, so the
	// final state provably straddles a generation: the kill leaves a
	// non-empty journal tail and the replay path is genuinely exercised.
	st := stream.RandomTurnstile(n, 60000, 100, rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03)))
	acked := 0
	for i := 0; i < len(st); i += 170 {
		hi := min(i+170, len(st))
		if _, err := client.PushUpdates(ctx, "t", "s", st[i:hi]); err != nil {
			t.Fatalf("push at %d: %v", i, err)
		}
		acked = hi
		if acked >= 30000 {
			break
		}
	}

	// SIGKILL mid-stream: no drain, no flush, no goodbye.
	if err := server.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	server.Wait() //nolint:errcheck // the kill IS the expected exit

	// Offline truth: what the store's last good generation + journal tail
	// reconstruct, read from a copy so this cannot disturb the real
	// recovery below.
	engineDir := filepath.Join(dataDir, "tenants", "t", "s", "engine")
	copyDir := filepath.Join(dir, "engine-copy")
	copyTree(t, engineDir, copyDir)
	store, err := checkpoint.Open(copyDir, checkpoint.Options{})
	if err != nil {
		t.Fatalf("opening store copy: %v", err)
	}
	rec, err := store.Latest()
	if err != nil {
		t.Fatalf("recovering store copy: %v", err)
	}
	expected := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
	for _, blob := range rec.States {
		s, err := streamsample.Load(blob)
		if err != nil {
			t.Fatalf("loading generation blob: %v", err)
		}
		if err := expected.Merge(s); err != nil {
			t.Fatalf("folding generation blob: %v", err)
		}
	}
	tailUpdates := 0
	for _, b := range rec.Tail {
		expected.ProcessBatch(b)
		tailUpdates += len(b)
	}
	store.Close() //nolint:errcheck // read-only use of a throwaway copy
	want, err := expected.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("killed after %d acked updates; store holds generation %d + %d journal-tail updates (torn=%v)",
		acked, rec.Generation, tailUpdates, rec.Torn)
	if tailUpdates == 0 {
		t.Fatal("kill landed on a checkpoint boundary; the journal-replay path was not exercised")
	}

	// Restart on the same directory: recovery must serve exactly that state.
	addr2, server2 := startSketchd(t, sketchdBin, "-data", dataDir, "-checkpoint-every", "512")
	defer stopProcess(server2)
	client2 := sketchd.NewClient(addr2)
	got, err := client2.Bytes(ctx, "t", "s")
	if err != nil {
		t.Fatalf("recovered bytes: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered sketch differs from last sealed generation + journal tail (%d vs %d bytes)",
			len(got), len(want))
	}
	// The write-ahead journal means every ACKed update survived the SIGKILL.
	serial := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
	serial.ProcessBatch(st[:acked])
	wantAcked, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantAcked) {
		t.Fatalf("recovered sketch lost ACKed updates (journal under-replayed)")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying %s: %v", src, err)
	}
}
