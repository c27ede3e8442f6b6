package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Sizes that every workload shares. They are part of the workloads'
// definition: a change here starts a new baseline.
const (
	frameLen = 2048 // updates per ingest call, library and wire alike
	l0Delta  = 0.2
	lpEps    = 0.25
	lpDelta  = 0.2
)

// env is what the harness hands every workload.
type env struct {
	seed    uint64
	scale   float64 // share of the full-size work to do; 1 at run_seconds
	procs   int     // GOMAXPROCS of harness and sketchd child; connection count
	outDir  string  // scratch and results, removed from git by bench/.gitignore
	sketchd string  // the cmd/sketchd binary; "" until a serve workload builds it
}

// scaled shrinks a full-size count by the run's scale, never below least.
func (e *env) scaled(full, least int) int {
	return max(least, int(float64(full)*e.scale+0.5))
}

// tempDir makes a scratch directory under the benchmark's own output
// directory, so that nothing is written outside the checkout.
func (e *env) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, pattern+"-*")
}

// outcome is what one untraced run of a workload measured.
type outcome struct {
	setup   []time.Duration // one per repetition of the set-up
	updates int64           // updates accepted during the measured ingest phase
	wall    time.Duration   // of the measured ingest phase
	cpu     time.Duration   // user+system time of the process under test over it
	ingest  []time.Duration // one per ingest call
	query   []time.Duration // one per query
	recover []time.Duration // persisted state to a sketch that answers

	sketchBytes int
	peakRSSKB   int64

	// attempted counts every operation whose result was checked; failed
	// those that errored, were refused or answered wrongly. mismatch marks
	// state that is not byte-identical to serial ingestion, which also fails
	// the run. failAnswers counts queries that answered FAIL: the paper
	// allows that answer with probability δ (by design about one lp_stream
	// seed in six), so it is an outcome to report, not a failed operation.
	attempted, failed int64
	mismatch          bool
	failAnswers       int64
}

// ingestPhase runs body as the measured ingest phase: its wall time, the
// CPU time cpuClock reports for the process under test, and the updates body
// adds to the counter it is given.
func (o *outcome) ingestPhase(cpuClock func() time.Duration, body func(accepted *atomic.Int64)) {
	var accepted atomic.Int64
	start, cpu0 := time.Now(), cpuClock()
	body(&accepted)
	o.wall = time.Since(start)
	o.cpu = cpuClock() - cpu0
	o.updates = accepted.Load()
}

func (o *outcome) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// answer counts one query: FAIL is a legitimate answer, anything else must
// be right.
func (o *outcome) answer(ok, right bool) {
	if !ok {
		o.attempted++
		o.failAnswers++
		return
	}
	o.check(right)
}

// checkBytes counts one byte-identity check.
func (o *outcome) checkBytes(what string, got, want []byte) {
	ok := string(got) == string(want)
	o.check(ok)
	if !ok {
		o.mismatch = true
		fmt.Fprintf(os.Stderr, "bench: %s: %d bytes differ from serial ingestion (%d bytes)\n", what, len(got), len(want))
	}
}

// metric is one named measurement as BENCHMARK.json declares it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a result with what a reader needs beside it: sample counts,
// the measurements BENCHMARK.json does not declare (see README.md for why
// they are not end-to-end metrics), and the counts that must repeat.
type report struct {
	Workload string `json:"workload"`
	result
	Samples map[string]int    `json:"samples,omitempty"`
	Info    map[string]metric `json:"info,omitempty"`
	Counts  map[string]int64  `json:"counts,omitempty"`
}

// endToEnd turns an outcome into the end-to-end metrics. Every workload
// reports every metric: the driver's contract is one flat list.
func (o *outcome) endToEnd(name string) report {
	tailV, pct := tail(o.ingest)
	return report{
		Workload: name,
		result: result{
			Correct:   !o.mismatch,
			Attempted: o.attempted,
			Failed:    o.failed,
			Metrics: map[string]metric{
				"setup_s":           {median(o.setup).Seconds(), "s"},
				"updates_per_s":     {float64(o.updates) / o.wall.Seconds(), "1/s"},
				"cpu_ns_per_update": {float64(o.cpu.Nanoseconds()) / float64(o.updates), "ns"},
				"query_p50_ms":      {ms(median(o.query)), "ms"},
				"sketch_bytes":      {float64(o.sketchBytes), "B"},
				"peak_rss_mb":       {float64(o.peakRSSKB) / 1024, "MiB"},
			},
		},
		Info: map[string]metric{
			"ingest_p50_ms":                   {ms(median(o.ingest)), "ms"},
			fmt.Sprintf("ingest_p%d_ms", pct): {ms(tailV), "ms"},
			"recover_s":                       {median(o.recover).Seconds(), "s"},
			"fail_share":                      {float64(o.failed+o.failAnswers) / float64(max(o.attempted, 1)), "ratio"},
		},
		Samples: map[string]int{
			"setup_s":       len(o.setup),
			"ingest_p50_ms": len(o.ingest),
			"query_p50_ms":  len(o.query),
			"recover_s":     len(o.recover),
		},
		// These must repeat exactly for a given seed and scale.
		Counts: map[string]int64{
			"ingest_calls": int64(len(o.ingest)),
			"updates":      o.updates,
			"queries":      int64(len(o.query)),
			"fail_answers": o.failAnswers,
		},
	}
}

// timeSetups runs set-up until it has three timings or has spent two
// seconds on it, tearing every instance but the last down again, and returns
// the timings with the last instance. Long set-ups are steady after one
// repetition; short ones need the median of three.
func timeSetups[T any](setup func() (T, error), teardown func(T)) ([]time.Duration, T, error) {
	var times []time.Duration
	var total time.Duration
	for {
		start := time.Now()
		inst, err := setup()
		d := time.Since(start)
		if err != nil {
			return nil, inst, err
		}
		times = append(times, d)
		total += d
		if len(times) == 3 || total > 2*time.Second {
			return times, inst, nil
		}
		teardown(inst)
	}
}

// warmCalls is the untimed first 5 % of n ingest calls (at least one).
func warmCalls(n int) int { return max(1, n/20) }

// workload is one named set of inputs with its two passes.
type workload struct {
	name string
	why  string
	// run is the untraced pass: the end-to-end metrics.
	run func(e *env) (*outcome, error)
	// inputs builds what the traced pass replays: the workload's own frames
	// and the sketch it folds them into.
	inputs func(e *env) *ladderInputs
}

// workloads is the fixed list; later issues refer to these names.
var workloads = []workload{
	{name: "l0_stream", run: runL0Stream, inputs: l0StreamInputs,
		why: "Theorem 2's L0 sampler, the served kind: prng, sparse and field do the work; hash, countsketch, norm, engine and sketchd do none"},
	{name: "lp_stream", run: runLpStream, inputs: lpStreamInputs,
		why: "Theorem 1's L1 sampler on signed Zipf updates: norm and scalar hash dominate and prng and sparse are idle, the mirror image of l0_stream"},
	{name: "dup_stream", run: runDupStream, inputs: dupStreamInputs,
		why: "Theorem 3's duplicate finder fed one Observe at a time: lp_stream's layers through the scalar path, so a batch-only win that taxes it shows"},
	{name: "engine_cs", run: runEngineCS, inputs: engineCSInputs,
		why: "sharded engine over a 40 ns/update count-sketch with the journal bound: routing, queues, checkpoint and the SIMD kernels are the majority"},
	{name: "serve_raw", run: runServeRaw, inputs: serveRawInputs,
		why: "the exporter hot path into cmd/sketchd: 2048-update frames on 2 closed-loop connections, then SIGKILL and restart; L0 fold versus transport"},
	{name: "serve_upload", run: runServeUpload, inputs: serveUploadInputs,
		why: "pre-folded 2.7 KB sketches uploaded to one sketch: HTTP, Load and the merge tree do all the work and the L0 update path none"},
	{name: "serve_mixed", run: runServeMixed, inputs: serveMixedInputs,
		why: "256 sketches over 16 tenants, 256-update frames with a /sample every 8 pushes: many engines, reads beside writes, memory and recovery"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
