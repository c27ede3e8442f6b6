// Command sketchload is the load harness of the serving tier: it simulates
// thousands of concurrent edge exporters pushing into one sketchd and
// reports what the tier actually delivered — ingest throughput, merge
// latency percentiles, and end-to-end agreement with serial single-process
// ingestion.
//
//	sketchload -addr http://127.0.0.1:7931 -exporters 10000 -len 1000000 -verify
//	sketchload -addr http://127.0.0.1:7931 -mode raw -exporters 1000
//
// The harness generates one deterministic stream from -seed, partitions it
// round-robin into -exporters disjoint slices, and drives every slice
// through its own simulated exporter:
//
//   - -mode sketch: each exporter ingests its slice into a local same-seed
//     sketch and POSTs the serialized bytes (the O(polylog) pattern the
//     paper's linearity enables — this is the default and the mode that
//     exercises the hierarchical merge tree).
//   - -mode raw: each exporter streams its slice as codec update frames
//     (exercising the server's engine and write-ahead journal hot path).
//
// Exporters run on a bounded worker pool (-concurrency) so 10k exporters
// do not mean 10k OS-level connections at once — like real fleets, many
// exporters share fewer connections. Retryable failures (503 partial
// results, transport blips) are retried transparently via internal/retry;
// typed permanent errors (mismatch, negotiation) fail the run.
//
// With -verify the whole stream is also ingested serially in-process and
// the server's merged sketch must agree: byte-identical marshaled state
// (linear kinds merge exactly) and equal samples per seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	streamsample "repro"
	"repro/internal/retry"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7931", "sketchd base URL")
	tenant := flag.String("tenant", "load", "target tenant")
	name := flag.String("name", "bench", "target sketch name")
	kind := flag.String("kind", "l0", "sketch kind: l0 | lp | hh")
	n := flag.Int("n", 1<<16, "vector dimension")
	length := flag.Int("len", 1<<20, "total stream length across all exporters")
	maxAbs := flag.Int64("max", 100, "maximum update magnitude")
	seed := flag.Uint64("seed", 1, "shared seed (stream generation and sketch randomness)")
	exporters := flag.Int("exporters", 10000, "simulated concurrent exporters")
	concurrency := flag.Int("concurrency", 256, "worker pool size (connections in flight)")
	mode := flag.String("mode", "sketch", "what exporters push: sketch | raw")
	retries := flag.Int("retries", 4, "attempts per request for retryable failures")
	verify := flag.Bool("verify", false, "compare the server's merged sketch against serial in-process ingestion")
	keep := flag.Bool("keep", false, "leave the sketch registered after the run")
	flag.Parse()

	if err := run(config{
		addr: *addr, tenant: *tenant, name: *name, kind: *kind,
		n: *n, length: *length, maxAbs: *maxAbs, seed: *seed,
		exporters: *exporters, concurrency: *concurrency, mode: *mode,
		retries: *retries, verify: *verify, keep: *keep,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "sketchload: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr, tenant, name, kind string
	n, length                int
	maxAbs                   int64
	seed                     uint64
	exporters, concurrency   int
	mode                     string
	retries                  int
	verify, keep             bool
}

func (c config) spec() sketchd.Spec {
	return sketchd.Spec{Kind: c.kind, N: c.n, Seed: c.seed}
}

func run(cfg config) error {
	if cfg.mode != "sketch" && cfg.mode != "raw" {
		return fmt.Errorf("unknown -mode %q (want sketch or raw)", cfg.mode)
	}
	if cfg.exporters < 1 || cfg.concurrency < 1 {
		return fmt.Errorf("-exporters and -concurrency must be positive")
	}

	r := rand.New(rand.NewPCG(cfg.seed, cfg.seed^0xD1B54A32D192ED03))
	st := stream.RandomTurnstile(cfg.n, cfg.length, cfg.maxAbs, r)

	// Round-robin partition: slice i gets updates i, i+E, i+2E, ... so the
	// E slices are disjoint and their union is the whole stream.
	parts := make([]stream.Stream, cfg.exporters)
	for i := range st {
		e := i % cfg.exporters
		parts[e] = append(parts[e], st[i])
	}

	ctx := context.Background()
	client := sketchd.NewClient(cfg.addr, sketchd.WithRetryPolicy(retry.Policy{Attempts: cfg.retries}))
	if _, err := client.Negotiate(ctx); err != nil {
		return fmt.Errorf("negotiating wire version: %w", err)
	}
	if err := client.Create(ctx, cfg.tenant, cfg.name, cfg.spec()); err != nil {
		return fmt.Errorf("creating %s/%s: %w", cfg.tenant, cfg.name, err)
	}
	if !cfg.keep {
		defer client.Delete(context.Background(), cfg.tenant, cfg.name) //nolint:errcheck // best-effort cleanup
	}

	// The worker pool: cfg.concurrency goroutines drain the exporter index
	// feed. Each exporter does its full local work (sketch build or frame
	// encode) inside the pool, like a real edge process would off-thread.
	var (
		next      atomic.Int64
		pushed    atomic.Int64
		firstErr  error
		errOnce   sync.Once
		latencies = make([]time.Duration, cfg.exporters)
		wg        sync.WaitGroup
	)
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	start := time.Now()
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.exporters || firstErr != nil {
					return
				}
				slice := parts[i]
				var err error
				var reqStart time.Time
				switch cfg.mode {
				case "sketch":
					local, berr := cfg.spec().Build()
					if berr != nil {
						fail(berr)
						return
					}
					local.ProcessBatch(slice)
					blob, merr := local.MarshalBinary()
					if merr != nil {
						fail(merr)
						return
					}
					reqStart = time.Now()
					err = client.PushSketch(ctx, cfg.tenant, cfg.name, blob, false)
				case "raw":
					reqStart = time.Now()
					_, err = client.PushUpdates(ctx, cfg.tenant, cfg.name, slice)
				}
				latencies[i] = time.Since(reqStart)
				if err != nil {
					fail(fmt.Errorf("exporter %d: %w", i, err))
					return
				}
				pushed.Add(int64(len(slice)))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	lat := slices.Clone(latencies)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) time.Duration {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}

	fmt.Printf("sketchload: mode=%s exporters=%d concurrency=%d updates=%d elapsed=%v\n",
		cfg.mode, cfg.exporters, cfg.concurrency, pushed.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("sketchload: throughput %.0f updates/s, %.0f exporters/s\n",
		float64(pushed.Load())/elapsed.Seconds(), float64(cfg.exporters)/elapsed.Seconds())
	fmt.Printf("sketchload: request latency p50=%v p90=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), lat[len(lat)-1].Round(time.Microsecond))

	if st, err := client.Statsz(ctx); err == nil {
		for _, s := range st.Sketches {
			if s.Tenant == cfg.tenant && s.Name == cfg.name {
				fmt.Printf("sketchload: server stats: engine routed=%d merge-tree uploads=%d leaf_folds=%d rejected=%d\n",
					s.Engine.Routed, s.MergeTree.Uploads, s.MergeTree.LeafFolds, s.MergeTree.Rejected)
			}
		}
	}

	if !cfg.verify {
		return nil
	}
	return verifyAgainstSerial(ctx, client, cfg, st)
}

// verifyAgainstSerial is the agreement check: the server's merged sketch
// must equal one in-process sketch that ingested the whole stream serially
// — byte-identical marshaled state (exact, by linearity) and equal samples.
func verifyAgainstSerial(ctx context.Context, client *sketchd.Client, cfg config, st stream.Stream) error {
	serial, err := cfg.spec().Build()
	if err != nil {
		return err
	}
	serial.ProcessBatch(st)
	want, err := serial.MarshalBinary()
	if err != nil {
		return err
	}
	got, err := client.Bytes(ctx, cfg.tenant, cfg.name)
	if err != nil {
		return fmt.Errorf("fetching merged sketch: %w", err)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("verify FAILED: server merged sketch (%d bytes) differs from serial ingestion (%d bytes)",
			len(got), len(want))
	}
	sample, err := client.Sample(ctx, cfg.tenant, cfg.name)
	if err != nil {
		return fmt.Errorf("sampling merged sketch: %w", err)
	}
	// The serial sketch's answer beside the server's: by determinism (same
	// seed, same state) the two agree, which the e2e test asserts; here it is
	// reporting.
	fmt.Printf("sketchload: verify OK — merged state byte-identical to serial (%d bytes); sample server=%+v serial=%+v\n",
		len(want), sample.Answer, streamsample.Query(serial))
	return nil
}
