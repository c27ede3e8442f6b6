package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime/debug"
	"sync/atomic"
	"time"

	streamsample "repro"
	"repro/internal/checkpoint"
	"repro/internal/codec"
	"repro/internal/countsketch"
	"repro/internal/engine"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// Full sizes of the library workloads, fitted to run_seconds on the 2-core
// box the baseline in README.md comes from.
const (
	l0N         = 1 << 16
	l0StreamLen = 4_000_000
	l0Passes    = 3
	l0Queries   = 2000

	lpN         = 1 << 14
	lpStreamLen = 300_000
	lpQueries   = 35

	dupN         = 1 << 16
	dupInstances = 2

	csStreamLen = 4_000_000
	csJobs      = 30
	csEvery     = 1 << 20 // updates between periodic checkpoints
)

// sketchSeed is the construction seed of every sketch a run builds. It is
// configuration, not input, so it does not follow -seed: with the hash
// functions fixed, the level at which an L0 query resolves (and so its cost)
// depends on the stream's support only, which every seed fills completely.
const sketchSeed = 0x5EEDC0DE

// resetPeakRSS returns the previous workload's heap to the system and
// restarts this process's VmHWM, so that one workload's peak does not carry
// into the next when several run in one process. Failure only means an older
// kernel; the reading is then an upper bound.
func resetPeakRSS() {
	debug.FreeOSMemory()
	//nolint:errcheck // best effort, see above
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

func selfPeakRSSKB() int64 {
	kb, err := procStatus(0, "VmHWM")
	if err != nil {
		return 0
	}
	return kb
}

// serialPhase pushes calls through fold one by one as the measured phase,
// timing each; the process under test is this one. The queries are spread
// evenly between the calls, query q after call ⌈(q+1)·len(calls)/queries⌉,
// with x brought up to the calls folded so far, and their wall and CPU time
// is taken off the phase's: the ingest phase measures what it would alone,
// and the median query latency is taken over the whole run and not over the
// moment after it (see README.md, "How steady it is").
func serialPhase(o *outcome, calls [][]stream.Update, fold func([]stream.Update), x []int64, queries int, query func()) {
	o.ingest = make([]time.Duration, 0, len(calls))
	o.query = make([]time.Duration, 0, queries)
	var offWall, offCPU time.Duration
	o.ingestPhase(selfCPU, func(accepted *atomic.Int64) {
		asked := 0
		for k, c := range calls {
			t := time.Now()
			fold(c)
			o.ingest = append(o.ingest, time.Since(t))
			accepted.Add(int64(len(c)))

			t, cpu := time.Now(), selfCPU()
			apply(x, calls[k:k+1], 1)
			for ; asked < queries && (asked+1)*len(calls) <= (k+1)*queries; asked++ {
				query()
			}
			offCPU += selfCPU() - cpu
			offWall += time.Since(t)
		}
	})
	o.wall -= offWall
	o.cpu -= offCPU
}

// repeatFrames lays passes of the same frames end to end.
func repeatFrames(fs [][]stream.Update, passes int) [][]stream.Update {
	out := make([][]stream.Update, 0, len(fs)*passes)
	for p := 0; p < passes; p++ {
		out = append(out, fs...)
	}
	return out
}

// timeLoads measures how long persisted bytes take to become a sketch again.
func timeLoads(o *outcome, blob []byte) error {
	for i := 0; i < 51; i++ {
		t := time.Now()
		if _, err := streamsample.Load(blob); err != nil {
			return fmt.Errorf("loading the sketch's own bytes: %w", err)
		}
		o.recover = append(o.recover, time.Since(t))
	}
	return nil
}

// ---------------------------------------------------------------------------
// l0_stream
// ---------------------------------------------------------------------------

// l0Frames is one pass of the uniform turnstile stream l0_stream and
// serve_raw share.
func l0Frames(e *env) [][]stream.Update {
	return frames(turnstile(l0N, e.scaled(l0StreamLen, frameLen), rng(e.seed, "l0_stream")), frameLen)
}

func l0StreamInputs(e *env) *ladderInputs {
	return &ladderInputs{
		spec:   l0Spec(l0N),
		frames: l0Frames(e),
	}
}

func runL0Stream(e *env) (*outcome, error) {
	one := l0Frames(e)
	calls := repeatFrames(one, l0Passes)
	warm := warmCalls(len(calls))
	queries := e.scaled(l0Queries, 20)
	qr := rng(e.seed, "l0_stream.queries")
	x := make([]int64, l0N)
	apply(x, calls[:warm], 1)

	resetPeakRSS()
	o := &outcome{}
	var err error
	var s *streamsample.L0Sampler
	o.setup, s, err = timeSetups(func() (*streamsample.L0Sampler, error) {
		s := streamsample.NewL0Sampler(l0N, streamsample.WithSeed(sketchSeed), streamsample.WithDelta(l0Delta))
		for _, c := range calls[:warm] {
			s.ProcessBatch(c)
		}
		return s, nil
	}, func(*streamsample.L0Sampler) {})
	if err != nil {
		return nil, err
	}
	// Dirty queries: the update invalidates the memo, so every Sample decodes.
	serialPhase(o, calls[warm:], s.ProcessBatch, x, queries, func() {
		i := qr.IntN(l0N)
		s.Update(i, 1)
		x[i]++
		t := time.Now()
		idx, val, ok := s.Sample()
		o.query = append(o.query, time.Since(t))
		o.answer(ok, val != 0 && x[idx] == val)
	})

	blob, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	o.sketchBytes = len(blob)
	want, err := l0Reference(l0Spec(l0N), x)
	if err != nil {
		return nil, err
	}
	o.checkBytes("l0_stream state", blob, want)
	if err := timeLoads(o, blob); err != nil {
		return nil, err
	}
	o.peakRSSKB = selfPeakRSSKB()
	return o, nil
}

// ---------------------------------------------------------------------------
// lp_stream
// ---------------------------------------------------------------------------

func lpFrames(e *env) [][]stream.Update {
	return frames(signedZipf(lpN, 1.1, e.scaled(lpStreamLen, 4*frameLen), rng(e.seed, "lp_stream")), frameLen)
}

func l0Spec(n int) sketchd.Spec {
	return sketchd.Spec{Kind: "l0", N: n, Delta: l0Delta, Seed: sketchSeed}
}

func lpSpec(n int) sketchd.Spec {
	return sketchd.Spec{Kind: "lp", N: n, P: 1, Eps: lpEps, Delta: lpDelta, Seed: sketchSeed}
}

func lpStreamInputs(e *env) *ladderInputs {
	return &ladderInputs{spec: lpSpec(lpN), frames: lpFrames(e)}
}

func runLpStream(e *env) (*outcome, error) {
	calls := lpFrames(e)
	warm := warmCalls(len(calls))
	queries := e.scaled(lpQueries, 3)
	qr := rng(e.seed, "lp_stream.queries")
	x := make([]int64, lpN)
	apply(x, calls[:warm], 1)

	resetPeakRSS()
	o := &outcome{}
	var err error
	var s *streamsample.LpSampler
	o.setup, s, err = timeSetups(func() (*streamsample.LpSampler, error) {
		s := streamsample.NewLpSampler(1, lpN, streamsample.WithSeed(sketchSeed),
			streamsample.WithEps(lpEps), streamsample.WithDelta(lpDelta))
		for _, c := range calls[:warm] {
			s.ProcessBatch(c)
		}
		return s, nil
	}, func(*streamsample.LpSampler) {})
	if err != nil {
		return nil, err
	}
	serialPhase(o, calls[warm:], s.ProcessBatch, x, queries, func() {
		i := qr.IntN(lpN)
		s.Update(i, 1)
		x[i]++
		t := time.Now()
		idx, est, ok := s.Sample()
		o.query = append(o.query, time.Since(t))
		o.answer(ok, math.Abs(est-float64(x[idx])) <= lpEps*math.Abs(float64(x[idx])))
	})

	blob, err := s.MarshalBinary()
	if err != nil {
		return nil, err
	}
	o.sketchBytes = len(blob)
	if err := timeLoads(o, blob); err != nil {
		return nil, err
	}
	o.peakRSSKB = selfPeakRSSKB()
	return o, nil
}

// ---------------------------------------------------------------------------
// dup_stream
// ---------------------------------------------------------------------------

// dupItems is the item stream of instance i: even instances get the
// permutation with one forced duplicate, odd ones uniform letters.
func dupItems(e *env, i int) []int {
	r := rng(e.seed, fmt.Sprintf("dup_stream.%d", i))
	// Full size is the n+1 letters of Theorem 3. A scaled-down run sees a
	// prefix, on which the finder may rightly answer FAIL.
	length := min(dupN+1, e.scaled(dupN+1, 2*frameLen))
	if i%2 == 0 {
		return permutationWithDuplicate(dupN, r)[:length]
	}
	return uniformLetters(dupN, r)[:length]
}

func dupStreamInputs(e *env) *ladderInputs {
	return &ladderInputs{
		spec:   lpSpec(dupN),
		frames: frames(lettersAsUpdates(dupItems(e, 0)), frameLen),
	}
}

func runDupStream(e *env) (*outcome, error) {
	items := make([][]int, dupInstances)
	for i := range items {
		items[i] = dupItems(e, i)
	}
	warm := warmCalls(len(items[0]))

	resetPeakRSS()
	o := &outcome{}
	var err error
	var finders []*streamsample.DuplicateFinder
	// The constructor feeds the n-letter pigeonhole prefix, so construction
	// is most of this workload's set-up.
	o.setup, finders, err = timeSetups(func() ([]*streamsample.DuplicateFinder, error) {
		fs := make([]*streamsample.DuplicateFinder, dupInstances)
		for i := range fs {
			fs[i] = streamsample.NewDuplicateFinder(dupN, streamsample.WithSeed(sketchSeed+uint64(i)))
			for _, it := range items[i][:warm] {
				fs[i].Observe(it)
			}
		}
		return fs, nil
	}, func([]*streamsample.DuplicateFinder) {})
	if err != nil {
		return nil, err
	}

	o.ingest = make([]time.Duration, 0, dupInstances*len(items[0]))
	o.ingestPhase(selfCPU, func(accepted *atomic.Int64) {
		for i, f := range finders {
			for _, it := range items[i][warm:] {
				t := time.Now()
				f.Observe(it)
				o.ingest = append(o.ingest, time.Since(t))
				accepted.Add(1)
			}
		}
	})

	for i, f := range finders {
		if i == 0 {
			blob, err := f.MarshalBinary()
			if err != nil {
				return nil, err
			}
			o.sketchBytes = len(blob)
			if err := timeLoads(o, blob); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		letter, ok := f.Find()
		o.query = append(o.query, time.Since(t))
		seen := 0
		for _, it := range items[i] {
			if it == letter {
				seen++
			}
		}
		o.answer(ok, seen >= 2)
	}
	o.peakRSSKB = selfPeakRSSKB()
	return o, nil
}

// ---------------------------------------------------------------------------
// engine_cs
// ---------------------------------------------------------------------------

func csFrames(e *env) [][]stream.Update {
	return frames(turnstile(l0N, e.scaled(csStreamLen, frameLen), rng(e.seed, "engine_cs")), frameLen)
}

func newCS() *countsketch.Sketch {
	return countsketch.New(64, 12, rand.New(rand.NewPCG(sketchSeed, sketchSeed)))
}

func marshalCS(s *countsketch.Sketch) ([]byte, error) {
	enc := codec.NewEncoder(codec.KindInvalid)
	s.AppendState(enc)
	return enc.Bytes(), nil
}

func restoreCS(s *countsketch.Sketch, b []byte) error {
	dec, err := codec.NewDecoder(b)
	if err != nil {
		return err
	}
	s.RestoreState(dec)
	return dec.Finish()
}

func mergeCS(dst, src *countsketch.Sketch) error { return dst.Merge(src) }

func engineCSInputs(e *env) *ladderInputs {
	return &ladderInputs{
		spec:   l0Spec(l0N),
		frames: csFrames(e),
		sink: &sinkKit{
			build:   func() stream.Sink { return newCS() },
			merge:   func(dst, src stream.Sink) error { return mergeCS(dst.(*countsketch.Sketch), src.(*countsketch.Sketch)) },
			marshal: func(s stream.Sink) ([]byte, error) { return marshalCS(s.(*countsketch.Sketch)) },
			restore: func(s stream.Sink, b []byte) error { return restoreCS(s.(*countsketch.Sketch), b) },
		},
	}
}

// csJob is one durable engine: a fresh store and an engine bound to it.
type csJob struct {
	dir   string
	store *checkpoint.Store
	eng   *engine.Engine[*countsketch.Sketch]
}

func openCSJob(e *env, dir string) (*csJob, error) {
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{Shards: e.procs, CheckpointEvery: csEvery},
		func(int) *countsketch.Sketch { return newCS() }, mergeCS)
	if err := eng.CheckpointTo(store, marshalCS, restoreCS); err != nil {
		eng.Close()
		return nil, errors.Join(err, store.Close())
	}
	return &csJob{dir: dir, store: store, eng: eng}, nil
}

// close stops the engine and removes the store; safe after Results.
func (j *csJob) close() error {
	j.eng.Close()
	return errors.Join(j.store.Close(), os.RemoveAll(j.dir))
}

func runEngineCS(e *env) (*outcome, error) {
	calls := csFrames(e)
	warm := warmCalls(len(calls))
	jobs := csJobs
	x := make([]int64, l0N)
	apply(x, calls, 1)
	ref := newCS()
	ref.ProcessBatch(asUpdates(x))
	want, _ := marshalCS(ref)

	// One job: a fresh store and engine, the whole stream, the merged result.
	job := func(calls [][]stream.Update, onCall func(time.Duration, int)) (res *countsketch.Sketch, answer time.Duration, err error) {
		dir, err := e.tempDir("engine_cs")
		if err != nil {
			return nil, 0, err
		}
		j, err := openCSJob(e, dir)
		if err != nil {
			return nil, 0, errors.Join(err, os.RemoveAll(dir))
		}
		defer func() { err = errors.Join(err, j.close()) }()
		// The job's answer time runs from its first input to the merged
		// result. Results() alone is half a millisecond of waiting for the
		// shard workers, too jittery to report; engine.results_ms in the
		// traced pass has it.
		first := time.Now()
		for _, c := range calls {
			t := time.Now()
			j.eng.ProcessBatch(c)
			onCall(time.Since(t), len(c))
		}
		res, err = j.eng.Results()
		return res, time.Since(first), errors.Join(err, j.eng.DurabilityErr())
	}

	resetPeakRSS()
	o := &outcome{}
	var err error
	o.setup, _, err = timeSetups(func() (struct{}, error) {
		_, _, err := job(calls[:warm], func(time.Duration, int) {})
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	o.ingest = make([]time.Duration, 0, jobs*len(calls))
	var results []*countsketch.Sketch
	o.ingestPhase(selfCPU, func(accepted *atomic.Int64) {
		for k := 0; k < jobs && err == nil; k++ {
			var res *countsketch.Sketch
			var answer time.Duration
			res, answer, err = job(calls, func(d time.Duration, n int) {
				o.ingest = append(o.ingest, d)
				accepted.Add(int64(n))
			})
			if err != nil {
				err = fmt.Errorf("engine_cs job %d: %w", k, err)
			}
			o.query = append(o.query, answer)
			results = append(results, res)
		}
	})
	if err != nil {
		return nil, err
	}

	for k, res := range results {
		got, _ := marshalCS(res)
		o.checkBytes(fmt.Sprintf("engine_cs job %d merged state", k), got, want)
		o.sketchBytes = len(got)
	}
	if err := recoverEngineCS(e, o, calls); err != nil {
		return nil, err
	}
	o.peakRSSKB = selfPeakRSSKB()
	return o, nil
}

// recoverEngineCS abandons an engine mid-stream, as a crash would, and times
// a second engine adopting the store: last generation plus journal tail.
func recoverEngineCS(e *env, o *outcome, calls [][]stream.Update) error {
	// Past one periodic checkpoint, so recovery replays a real tail.
	prefix := calls[:min(len(calls), csEvery/frameLen+csEvery/frameLen/2)]
	serial := newCS()
	for _, c := range prefix {
		serial.ProcessBatch(c)
	}
	want, _ := marshalCS(serial)

	dir, err := e.tempDir("engine_cs-recover")
	if err != nil {
		return err
	}
	first, err := openCSJob(e, dir)
	if err != nil {
		return errors.Join(err, os.RemoveAll(dir))
	}
	for _, c := range prefix {
		first.eng.ProcessBatch(c)
	}
	first.eng.Close()
	if err := first.store.Close(); err != nil {
		return errors.Join(err, os.RemoveAll(dir))
	}

	t := time.Now()
	second, err := openCSJob(e, dir)
	if err != nil {
		return errors.Join(err, os.RemoveAll(dir))
	}
	o.recover = append(o.recover, time.Since(t))
	res, err := second.eng.Results()
	if err == nil {
		got, _ := marshalCS(res)
		o.checkBytes("engine_cs recovered state", got, want)
	}
	return errors.Join(err, second.close())
}
