// Serving-tier benchmarks: the two ingest paths of the sketchd network
// tier, measured end-to-end through real HTTP — client framing, wire
// transfer, server-side decode/validation, and the sketch's one-shard engine
// or merge tree behind the handler. Both are in the bench-gate set (see
// cmd/benchgate), so regressions in the serving hot path fail CI like any
// kernel regression.
package streamsample_test

import (
	"context"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	streamsample "repro"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// benchServe stands up a real registry-backed server on a loopback
// listener and returns a connected client plus the created sketch's
// coordinates.
func benchServe(b *testing.B, cfg sketchd.RegistryConfig, spec sketchd.Spec) *sketchd.Client {
	b.Helper()
	cfg.Dir = b.TempDir()
	reg, err := sketchd.OpenRegistry(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(sketchd.NewServer(reg))
	b.Cleanup(func() {
		ts.Close()
		reg.Drain() //nolint:errcheck // benchmark teardown
	})
	c := sketchd.NewClient(ts.URL)
	if err := c.Create(context.Background(), "bench", "s", spec); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkServeIngestRaw pushes a 60k-update turnstile stream per
// iteration as length-prefixed raw frames — the exporter path that rides
// the engine's write-ahead journal.
func BenchmarkServeIngestRaw(b *testing.B) {
	const n, seed, length = 1 << 14, 11, 60000
	c := benchServe(b, sketchd.RegistryConfig{}, sketchd.Spec{Kind: "l0", N: n, Seed: seed})
	st := stream.RandomTurnstile(n, length, 100, rand.New(rand.NewPCG(seed, seed)))
	ctx := context.Background()
	b.SetBytes(int64(len(st)) * 16) // wire bytes per iteration: 16 per update record
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(st); lo += 2048 {
			hi := min(lo+2048, len(st))
			if _, err := c.PushUpdates(ctx, "bench", "s", st[lo:hi]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeIngestSketch pushes 64 pre-folded exporter sketches per
// iteration — the upload path through Load, compatibility checks, and the
// hierarchical merge tree.
func BenchmarkServeIngestSketch(b *testing.B) {
	const n, seed, parts = 1 << 14, 11, 64
	c := benchServe(b, sketchd.RegistryConfig{FanIn: 8}, sketchd.Spec{Kind: "l0", N: n, Seed: seed})
	st := stream.RandomTurnstile(n, 60000, 100, rand.New(rand.NewPCG(seed, seed)))
	blobs := make([][]byte, parts)
	for p := 0; p < parts; p++ {
		local := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
		var slice stream.Stream
		for j := p; j < len(st); j += parts {
			slice = append(slice, st[j])
		}
		local.ProcessBatch(slice)
		blob, err := local.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		blobs[p] = blob
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, blob := range blobs {
			if err := c.PushSketch(ctx, "bench", "s", blob, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}
