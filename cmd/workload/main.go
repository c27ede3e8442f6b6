// Command workload generates the benchmark workloads of the experiments as
// text streams, for piping into cmd/lpsample and cmd/dupfind or into other
// systems under comparison — and, with -ingest, drives them end-to-end
// through the sharded ingestion engine to report serial-vs-sharded
// throughput.
//
//	workload -kind turnstile -n 1000 -len 5000      # "index delta" lines
//	workload -kind zipf -n 1000 -alpha 1.1          # skewed signed vector
//	workload -kind sparse -n 1000 -support 20       # exact support with churn
//	workload -kind strict -n 1000 -len 5000         # strict turnstile
//	workload -kind duplicates -n 1000               # n+1 items, one per line
//
//	workload -kind turnstile -n 65536 -len 10000000 -ingest countsketch
//	workload -kind turnstile -len 1000000 -ingest l0 -shards 8 -batch 2048
//
// Update kinds print "index delta" lines; the duplicates kind prints one
// item per line (feed to dupfind). With -ingest the stream is not printed:
// it is fed once through a single serial sketch and once through the engine
// (same-seed replicas, shard → batch → merge), and a throughput comparison
// is written to stderr. Supported -ingest sinks: countsketch, l0, lp, hh.
//
// # Distributed export / remote merge
//
// -export and -import demonstrate the serialized-sketch pattern end to end:
// N processes each ingest a disjoint shard of the stream into a same-seed
// public sketch and emit its wire bytes; one process loads the byte files
// and merges them — by sketch linearity the merged sketch answers exactly
// like one process that ingested everything.
//
//	workload -len 100000 -sketch l0 -shard 0/3 -export shard0.sketch
//	workload -len 100000 -sketch l0 -shard 1/3 -export shard1.sketch
//	workload -len 100000 -sketch l0 -shard 2/3 -export shard2.sketch
//	workload -import shard0.sketch,shard1.sketch,shard2.sketch
//
// -push replaces the file with a running sketchd: the same shard sketch is
// POSTed to the serving tier (created on the fly under -tenant/-name if not
// yet registered), so the N-exporters-one-merger pattern exercises the real
// network path end to end:
//
//	workload -len 100000 -sketch l0 -shard 0/3 -push http://127.0.0.1:7931
//	workload -len 100000 -sketch l0 -shard 1/3 -push http://127.0.0.1:7931
//	workload -len 100000 -sketch l0 -shard 2/3 -push http://127.0.0.1:7931
//	curl http://127.0.0.1:7931/v1/tenants/workload/sketches/stream/sample
//
// All exporters must share -seed (it seeds both the generated stream and
// the sketch randomness); -shard i/N takes every N-th update starting at i,
// so the N slices partition the stream. -import is self-describing: the
// files carry their kind, config and seed, and mismatched shards fail with
// the typed merge errors.
//
// By default -import is resilient: a file that cannot be read (after a few
// retries for transient errors), decoded or merged is skipped with a note,
// and the summary line counts the skips by reason — merging the shards that
// did arrive is usually more useful than nothing. -strict restores
// fail-on-first-problem for pipelines that need all-or-nothing semantics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	streamsample "repro"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/engine"
	"repro/internal/heavyhitters"
	"repro/internal/retry"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

func main() {
	kind := flag.String("kind", "turnstile", "turnstile | zipf | sparse | strict | duplicates")
	n := flag.Int("n", 1024, "vector dimension / alphabet size")
	length := flag.Int("len", 4096, "stream length (turnstile, strict)")
	maxAbs := flag.Int64("max", 100, "maximum update magnitude")
	alpha := flag.Float64("alpha", 1.0, "zipf exponent")
	support := flag.Int("support", 16, "support size (sparse)")
	seed := flag.Uint64("seed", 1, "random seed")
	ingest := flag.String("ingest", "", "drive the stream through a sketch instead of printing it: countsketch | l0 | lp | hh")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "engine shard count (-ingest)")
	batch := flag.Int("batch", 2048, "engine batch size (-ingest)")
	export := flag.String("export", "", "ingest the stream into a -sketch sketch and write its serialized bytes to this file")
	importList := flag.String("import", "", "comma-separated sketch files: load, merge and query them (no stream is generated)")
	sketchKind := flag.String("sketch", "l0", "public sketch kind for -export: l0 | lp | hh")
	shardSpec := flag.String("shard", "0/1", "with -export or -push, ingest only the i-th of N disjoint stream slices, as \"i/N\"")
	strict := flag.Bool("strict", false, "with -import, fail on the first unusable file instead of skipping it with a report")
	push := flag.String("push", "", "like -export, but POST the sketch bytes to a running sketchd at this base URL instead of a file")
	tenant := flag.String("tenant", "workload", "with -push, the target tenant")
	sketchName := flag.String("name", "stream", "with -push, the target sketch name")
	flag.Parse()

	if *importList != "" {
		if err := runImport(strings.Split(*importList, ","), *strict); err != nil {
			fmt.Fprintf(os.Stderr, "workload: %v\n", err)
			os.Exit(2)
		}
		return
	}

	// Reject bad -ingest/-export parameters before the (possibly
	// multi-second) stream generation, not after.
	switch *ingest {
	case "", "countsketch", "l0", "lp", "hh":
	default:
		fmt.Fprintf(os.Stderr, "workload: unknown -ingest sink %q (want countsketch, l0, lp or hh)\n", *ingest)
		os.Exit(2)
	}
	if *export != "" || *push != "" {
		if err := (sketchd.Spec{Kind: *sketchKind, N: *n, Seed: *seed}).Check(); err != nil {
			fmt.Fprintf(os.Stderr, "workload: -sketch: %v\n", err)
			os.Exit(2)
		}
		if _, _, err := parseShard(*shardSpec); err != nil {
			fmt.Fprintf(os.Stderr, "workload: %v\n", err)
			os.Exit(2)
		}
	}

	r := rand.New(rand.NewPCG(*seed, *seed^0xD1B54A32D192ED03))

	var st stream.Stream
	switch *kind {
	case "turnstile":
		st = stream.RandomTurnstile(*n, *length, *maxAbs, r)
	case "zipf":
		st = stream.ZipfSigned(*n, *alpha, *maxAbs, r)
	case "sparse":
		st = stream.SparseVector(*n, *support, *maxAbs, r)
	case "strict":
		st = stream.StrictTurnstile(*n, *length, *maxAbs, r)
	case "duplicates":
		if *ingest != "" {
			fmt.Fprintln(os.Stderr, "workload: -ingest drives update streams; use an update kind")
			os.Exit(2)
		}
		w := bufio.NewWriter(os.Stdout)
		defer w.Flush()
		for _, it := range stream.DuplicateItems(*n, -1, r) {
			fmt.Fprintln(w, it)
		}
		return
	default:
		fmt.Fprintf(os.Stderr, "workload: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	if *export != "" {
		if err := runExport(*export, *sketchKind, *shardSpec, st, *n, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "workload: %v\n", err)
			os.Exit(2)
		}
		return
	}

	if *push != "" {
		if err := runPush(*push, *tenant, *sketchName, *sketchKind, *shardSpec, st, *n, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "workload: %v\n", err)
			os.Exit(2)
		}
		return
	}

	if *ingest != "" {
		if err := drive(*ingest, st, *n, *seed, *shards, *batch); err != nil {
			fmt.Fprintf(os.Stderr, "workload: %v\n", err)
			os.Exit(2)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, u := range st {
		fmt.Fprintf(w, "%d %d\n", u.Index, u.Delta)
	}
}

// drive feeds the stream through one serial sketch and through the sharded
// engine, and reports both throughputs. The factory is re-invoked with the
// same seed everywhere, so the engine's replicas are mergeable and the
// merged result summarizes the exact same vector as the serial sink.
func drive(sink string, st stream.Stream, n int, seed uint64, shards, batch int) error {
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(seed^0xBEEF, seed^0x9E3779B97F4A7C15)) }
	var factory func() stream.Sink
	var merge func(dst, src stream.Sink) error
	switch sink {
	case "countsketch":
		factory = func() stream.Sink { return countsketch.New(64, 12, rng()) }
		merge = func(dst, src stream.Sink) error {
			return dst.(*countsketch.Sketch).Merge(src.(*countsketch.Sketch))
		}
	case "l0":
		factory = func() stream.Sink { return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2}, rng()) }
		merge = func(dst, src stream.Sink) error {
			return dst.(*core.L0Sampler).Merge(src.(*core.L0Sampler))
		}
	case "lp":
		factory = func() stream.Sink {
			return core.NewLpSampler(core.LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.2}, rng())
		}
		merge = func(dst, src stream.Sink) error {
			return dst.(*core.LpSampler).Merge(src.(*core.LpSampler))
		}
	case "hh":
		factory = func() stream.Sink {
			return heavyhitters.New(heavyhitters.Config{P: 1, Phi: 0.1, N: n}, rng())
		}
		merge = func(dst, src stream.Sink) error {
			return dst.(*heavyhitters.Sketch).Merge(src.(*heavyhitters.Sketch))
		}
	default:
		// Unreachable: main validates the sink name before generating the
		// stream; kept as a guard for direct callers.
		return fmt.Errorf("unknown -ingest sink %q (want countsketch, l0, lp or hh)", sink)
	}

	serialSink := factory()
	serialStart := time.Now()
	st.Feed(serialSink)
	serialDur := time.Since(serialStart)

	eng := engine.New(engine.Config{Shards: shards, BatchSize: batch},
		func(int) stream.Sink { return factory() }, merge)
	engineStart := time.Now()
	eng.Feed(st)
	if _, err := eng.Results(); err != nil {
		return fmt.Errorf("engine merge: %w", err)
	}
	engineDur := time.Since(engineStart)

	updates := float64(len(st))
	fmt.Fprintf(os.Stderr, "sink=%s updates=%d n=%d\n", sink, len(st), n)
	fmt.Fprintf(os.Stderr, "serial: %12.0f updates/s  (%v)\n", updates/serialDur.Seconds(), serialDur.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "engine: %12.0f updates/s  (%v)  shards=%d batch=%d\n",
		updates/engineDur.Seconds(), engineDur.Round(time.Millisecond), shards, batch)
	fmt.Fprintf(os.Stderr, "speedup: %.2fx\n", serialDur.Seconds()/engineDur.Seconds())
	return nil
}

// runExport ingests the shard slice of the stream into a fresh same-seed
// public sketch and writes its MarshalBinary bytes to path. The stream is
// generated deterministically from the flags, so N processes running with
// the same flags and -shard 0/N .. N-1/N ingest disjoint slices whose union
// is the whole stream.
func runExport(path, kind, shardSpec string, st stream.Stream, n int, seed uint64) error {
	data, idx, cnt, updates, err := buildShardSketch(kind, shardSpec, st, n, seed)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported shard %d/%d: %d updates, %d sketch bytes -> %s\n",
		idx, cnt, updates, len(data), path)
	return nil
}

// runPush is -export over the network: the same shard sketch, POSTed to a
// running sketchd instead of written to a file. A sketch that is not yet
// registered is created on the fly from the flag-derived spec that
// buildShardSketch built the shard from, so every -push exporter sharing
// -seed produces mergeable same-seed replicas.
func runPush(addr, tenant, name, kind, shardSpec string, st stream.Stream, n int, seed uint64) error {
	data, idx, cnt, updates, err := buildShardSketch(kind, shardSpec, st, n, seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	client := sketchd.NewClient(addr)
	push := func() error { return client.PushSketch(ctx, tenant, name, data, false) }
	err = push()
	if errors.Is(err, sketchd.ErrNotFound) {
		spec := sketchd.Spec{Kind: kind, N: n, Seed: seed}
		if cerr := client.Create(ctx, tenant, name, spec); cerr != nil && !errors.Is(cerr, sketchd.ErrExists) {
			return fmt.Errorf("creating %s/%s: %w", tenant, name, cerr)
		}
		err = push()
	}
	if err != nil {
		return fmt.Errorf("pushing shard %d/%d to %s: %w", idx, cnt, addr, err)
	}
	fmt.Fprintf(os.Stderr, "pushed shard %d/%d: %d updates, %d sketch bytes -> %s (%s/%s)\n",
		idx, cnt, updates, len(data), addr, tenant, name)
	return nil
}

// buildShardSketch ingests the shard slice of the stream into a fresh
// same-seed public sketch and returns its wire bytes.
func buildShardSketch(kind, shardSpec string, st stream.Stream, n int, seed uint64) (data []byte, idx, cnt, updates int, err error) {
	idx, cnt, err = parseShard(shardSpec)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	sk, err := sketchd.Spec{Kind: kind, N: n, Seed: seed}.Build()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	shard := make(stream.Stream, 0, len(st)/cnt+1)
	for j := idx; j < len(st); j += cnt {
		shard = append(shard, st[j])
	}
	sk.ProcessBatch(shard)
	data, err = sk.MarshalBinary()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("marshal: %w", err)
	}
	return data, idx, cnt, len(shard), nil
}

// parseShard parses the "i/N" disjoint-slice selector of -shard.
func parseShard(spec string) (idx, cnt int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &idx, &cnt); err != nil || cnt < 1 || idx < 0 || idx >= cnt {
		return 0, 0, fmt.Errorf("bad -shard %q (want \"i/N\" with 0 <= i < N)", spec)
	}
	return idx, cnt, nil
}

// readSketchFile reads one exported sketch, retrying transient I/O errors
// with capped backoff; a missing file is permanent and fails immediately.
func readSketchFile(path string) ([]byte, error) {
	var data []byte
	err := retry.Do(context.Background(), retry.Policy{Attempts: 3}, func() error {
		var err error
		data, err = os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return retry.Permanent(err)
		}
		return err
	})
	return data, err
}

// importSkips counts the files -import could not use, by typed reason.
type importSkips struct {
	unreadable  int // read failed after retries
	undecodable int // bytes did not decode as a sketch (codec errors)
	unmergeable int // decoded, but incompatible with the shards so far
}

func (k importSkips) total() int { return k.unreadable + k.undecodable + k.unmergeable }

func (k importSkips) String() string {
	return fmt.Sprintf("%d unreadable, %d undecodable, %d unmergeable",
		k.unreadable, k.undecodable, k.unmergeable)
}

// runImport loads each serialized sketch, merges the rest into the first —
// the remote-merge half of the distributed pattern — and queries the merged
// sketch. The files are self-describing: kind, config and seed travel with
// the bytes, and shards from different seeds or configs are rejected with
// the typed merge errors.
//
// Unusable files are skipped and counted by reason unless strict is set, in
// which case the first problem aborts the import.
func runImport(files []string, strict bool) error {
	var merged streamsample.Sketch
	var skips importSkips
	used := 0
	skip := func(f, reason string, err error, counter *int) error {
		if strict {
			return fmt.Errorf("%s %s: %w", reason, f, err)
		}
		*counter++
		fmt.Fprintf(os.Stderr, "workload: skipping %s file %s: %v\n", reason, f, err)
		return nil
	}
	for _, f := range files {
		f = strings.TrimSpace(f)
		data, err := readSketchFile(f)
		if err != nil {
			if err := skip(f, "unreadable", err, &skips.unreadable); err != nil {
				return err
			}
			continue
		}
		s, err := streamsample.Load(data)
		if err != nil {
			if err := skip(f, "undecodable", err, &skips.undecodable); err != nil {
				return err
			}
			continue
		}
		if merged == nil {
			merged = s
			used++
			continue
		}
		if err := merged.Merge(s); err != nil {
			if err := skip(f, "unmergeable", err, &skips.unmergeable); err != nil {
				return err
			}
			continue
		}
		used++
	}
	if merged == nil {
		if skips.total() > 0 {
			return fmt.Errorf("-import: no usable sketch among %d file(s): %v", len(files), skips)
		}
		return fmt.Errorf("-import needs at least one file")
	}
	fmt.Fprintf(os.Stderr, "merged %d/%d shard sketches (%T, %d bits); skipped: %v\n",
		used, len(files), merged, merged.SpaceBits(), skips)
	// The query answer, as sketchd's /sample would serve it.
	answer, err := json.Marshal(streamsample.Query(merged))
	if err != nil {
		return err
	}
	fmt.Println(string(answer))
	return nil
}
