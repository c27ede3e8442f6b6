package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	streamsample "repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/countsketch"
	"repro/internal/duplicates"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/hash"
	"repro/internal/kernel"
	"repro/internal/norm"
	"repro/internal/prng"
	"repro/internal/sketchd"
	"repro/internal/sparse"
	"repro/internal/stream"
)

// The traced pass replays a fixed slice of a workload's own frames through
// every cut of the stack, bottom to top, on shadow instances built from the
// workload's spec and seed. Each call into a layer's public function is one
// span; nothing inside the program is instrumented. The cuts run one after
// the other over the whole slice (cut-major), so every layer is timed in its
// own steady state, and the spans of one frame share a trace id.
//
// Calls that return before their work is done (the engine and everything
// above it hand frames to shard workers) get one closing "drain" span per
// cut; their per-update cost is the slice's spans plus the drain over the
// slice's updates. Synchronous cuts report the median span.

const (
	sliceElements = 16 // frames replayed per workload, chosen by index
	treeRounds    = 40 // times each element's blob enters the merge-tree probe
	dupItemsPer   = 32 // letters per element fed to the duplicates probe
	shadowCount   = 8  // sketches the registry probe creates
)

// sinkKit is the sketch an engine probe folds into, with what the engine
// needs to merge and checkpoint it.
type sinkKit struct {
	build   func() stream.Sink
	merge   func(dst, src stream.Sink) error
	marshal func(stream.Sink) ([]byte, error)
	restore func(stream.Sink, []byte) error
}

// ladderInputs is what a workload hands the traced pass.
type ladderInputs struct {
	spec   sketchd.Spec      // the sketch the workload serves or embeds
	frames [][]stream.Update // its ingest calls, in order
	sink   *sinkKit          // what its engine folds into; nil means spec
}

// specSink folds into same-seed replicas of the spec, as sketchd does.
func specSink(spec sketchd.Spec) (*sinkKit, error) {
	zero, err := spec.Build()
	if err != nil {
		return nil, err
	}
	tmpl, err := zero.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &sinkKit{
		build: func() stream.Sink {
			s, err := streamsample.Load(tmpl)
			if err != nil {
				panic(fmt.Errorf("bench: spec template no longer loads: %w", err)) // bytes we produced
			}
			return s
		},
		merge: func(dst, src stream.Sink) error {
			return dst.(streamsample.Sketch).Merge(src.(streamsample.Sketch))
		},
		marshal: func(s stream.Sink) ([]byte, error) { return s.(streamsample.Sketch).MarshalBinary() },
		restore: func(s stream.Sink, b []byte) error { return s.(streamsample.Sketch).UnmarshalBinary(b) },
	}, nil
}

// span is one timed call at a cut of the ladder.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // the span of the cut above on the same frame; 0 at the top
	Trace    int    `json:"trace"`  // the frame's index in the workload; -1 for one-off spans
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the traced pass began
	EndNS    int64  `json:"end_ns"`
	Units    int    `json:"units"`
	Bytes    int    `json:"bytes"`
}

// parentCut names the cut above each cut: a cut's self time is its span
// minus the spans of the cuts that name it as parent.
var parentCut = map[string]string{
	"registry.ingest":       "http.ingest",
	"wire.encode":           "http.ingest",
	"wire.decode":           "http.ingest",
	"engine.durable":        "registry.ingest",
	"checkpoint.append":     "engine.durable",
	"engine.process":        "engine.durable",
	"sink.fold":             "engine.process",
	"core.l0_fold":          "sink.fold",
	"core.lp_fold":          "sink.fold",
	"countsketch.fold":      "sink.fold",
	"prng.block":            "core.l0_fold",
	"sparse.fold":           "core.l0_fold",
	"kernel.syndrome":       "sparse.fold",
	"field.powcache":        "sparse.fold",
	"norm.stable":           "core.lp_fold",
	"norm.ams":              "core.lp_fold",
	"hash.kwise_float":      "core.lp_fold",
	"countsketch.addbatch":  "core.lp_fold",
	"hash.sign4":            "norm.ams",
	"hash.float8":           "norm.stable",
	"hash.bucketsign":       "countsketch.fold",
	"kernel.bucketsign":     "hash.bucketsign",
	"kernel.scatter":        "countsketch.fold",
	"registry.upload":       "http.upload",
	"mergetree.add":         "registry.upload",
	"serialize.load":        "registry.upload",
	"serialize.merge":       "mergetree.add",
	"registry.merged":       "http.sample",
	"engine.snapshot":       "registry.merged",
	"serialize.marshal":     "engine.snapshot",
	"registry.sample":       "http.sample",
	"core.l0_sample":        "registry.sample",
	"core.lp_sample":        "registry.sample",
	"sparse.recover":        "core.l0_sample",
	"countsketch.decode":    "core.lp_sample",
	"engine.process.drain":  "engine.process",
	"engine.parallel.drain": "engine.parallel",
	"engine.durable.drain":  "engine.durable",
	"registry.ingest.drain": "registry.ingest",
	"http.ingest.drain":     "http.ingest",
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

// time runs fn as one span; fn returns the units of work it did and the
// bytes it moved.
func (tr *tracer) time(name string, trace int, fn func() (units, nbytes int)) time.Duration {
	start := time.Now()
	units, nbytes := fn()
	end := time.Now()
	tr.spans = append(tr.spans, span{
		ID: len(tr.spans) + 1, Trace: trace, Workload: tr.workload, Name: name,
		StartNS: start.Sub(tr.t0).Nanoseconds(), EndNS: end.Sub(tr.t0).Nanoseconds(),
		Units: units, Bytes: nbytes,
	})
	return end.Sub(start)
}

// overheadShare is the traced pass over what it would have taken without
// recording: the pass's wall time against the same minus the cost of its
// spans, measured by recording empty ones. Running the slice a second time
// unrecorded would bury that cost, a few hundred nanoseconds per span, under
// the difference between any two runs.
func (tr *tracer) overheadShare() float64 {
	pass := time.Since(tr.t0)
	const empties = 10_000
	scratch := tracer{t0: tr.t0, spans: make([]span, 0, empties)}
	start := time.Now()
	for i := 0; i < empties; i++ {
		scratch.time("empty", i, func() (int, int) { return 0, 0 })
	}
	recording := time.Since(start) / empties * time.Duration(len(tr.spans))
	return pass.Seconds() / (pass - recording).Seconds()
}

// write links every span to its parent cut's span on the same frame and
// writes one JSON object per line.
func (tr *tracer) write(path string) error {
	type key struct {
		name  string
		trace int
	}
	first := make(map[key]int, len(tr.spans))
	for _, s := range tr.spans {
		if _, ok := first[key{s.Name, s.Trace}]; !ok {
			first[key{s.Name, s.Trace}] = s.ID
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if p := parentCut[s.Name]; p != "" {
			s.Parent = first[key{p, s.Trace}]
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perUnit is the median over the named spans of nanoseconds per unit, with
// the number of spans behind it.
func (tr *tracer) perUnit(name string) (float64, int) {
	var v []float64
	for _, s := range tr.spans {
		if s.Name == name && s.Units > 0 {
			v = append(v, float64(s.EndNS-s.StartNS)/float64(s.Units))
		}
	}
	if len(v) == 0 {
		return 0, 0
	}
	return medianFloat(v), len(v)
}

// throughUnit is the named spans plus their drain span over the units they
// carried: the steady-state cost of a cut that returns before it is done.
func (tr *tracer) throughUnit(name string) (float64, int) {
	var ns int64
	units, n := 0, 0
	for _, s := range tr.spans {
		switch s.Name {
		case name:
			units += s.Units
			n++
			fallthrough
		case name + ".drain":
			ns += s.EndNS - s.StartNS
		}
	}
	if units == 0 {
		return 0, 0
	}
	return float64(ns) / float64(units), n
}

// element is one replayed frame with the views the probes need.
type element struct {
	idx    int // the frame's index in the workload
	frame  []stream.Update
	keys   []uint64
	deltas []float64
	blob   []byte // the frame folded into a same-seed sketch of the spec
}

// pick takes every (len/sliceElements)-th frame, by index.
func pick(in *ladderInputs) ([]element, error) {
	stride := max(1, len(in.frames)/sliceElements)
	var els []element
	for i := 0; i < len(in.frames); i += stride {
		f := in.frames[i]
		el := element{idx: i, frame: f, keys: make([]uint64, len(f)), deltas: make([]float64, len(f))}
		for t, u := range f {
			el.keys[t] = uint64(u.Index)
			el.deltas[t] = float64(u.Delta)
		}
		var err error
		if el.blob, err = fold(in.spec, f); err != nil {
			return nil, err
		}
		els = append(els, el)
	}
	return els, nil
}

// ladder is one traced pass.
type ladder struct {
	e     *env
	in    *ladderInputs
	els   []element
	tr    *tracer
	r     *rand.Rand        // randomness of the shadow instances
	vals  map[string]metric // every per-layer metric of the pass
	count map[string]int    // spans behind each metric
	dir   string            // scratch for stores and registries

	// shapes, read from shadow samplers of the workload's dimension
	n, s, levels, k, m, copies, lpRows int
}

// set records a metric that a probe computed itself.
func (l *ladder) set(name string, v float64, unit string, spans int) {
	l.vals[name] = metric{v, unit}
	l.count[name] = spans
}

// timeUnit is a unit a span's nanoseconds are reported in.
type timeUnit struct {
	name  string
	perNS float64
}

var (
	inNS = timeUnit{"ns", 1}
	inUS = timeUnit{"us", 1e-3}
	inMS = timeUnit{"ms", 1e-6}
)

// fromSpans records the per-unit median of the named spans, in u.
func (l *ladder) fromSpans(name, spanName string, u timeUnit) {
	v, n := l.tr.perUnit(spanName)
	l.set(name, v*u.perNS, u.name, n)
}

// fromThrough is fromSpans for cuts with a drain.
func (l *ladder) fromThrough(name, spanName string) {
	v, n := l.tr.throughUnit(spanName)
	l.set(name, v, "ns", n)
}

// each runs fn as one span per element.
func (l *ladder) each(name string, fn func(el *element) (units, nbytes int)) {
	for i := range l.els {
		el := &l.els[i]
		l.tr.time(name, el.idx, func() (int, int) { return fn(el) })
	}
}

// once runs fn as a one-off span.
func (l *ladder) once(name string, units int, fn func()) time.Duration {
	return l.tr.time(name, -1, func() (int, int) {
		fn()
		return units, 0
	})
}

func (l *ladder) updates() int {
	n := 0
	for _, el := range l.els {
		n += len(el.frame)
	}
	return n
}

// runTraced is the per-layer pass of one workload.
func runTraced(e *env, w workload) (rep report, err error) {
	in := w.inputs(e)
	if in.sink == nil {
		if in.sink, err = specSink(in.spec); err != nil {
			return rep, err
		}
	}
	els, err := pick(in)
	if err != nil {
		return rep, err
	}
	dir, err := e.tempDir("trace-" + w.name)
	if err != nil {
		return rep, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()

	l := &ladder{
		e: e, in: in, els: els, dir: dir,
		tr:    &tracer{workload: w.name, t0: time.Now()},
		r:     rng(e.seed, "trace."+w.name),
		vals:  make(map[string]metric),
		count: make(map[string]int),
	}
	u0, s0 := selfCPUSplit()
	l.shapes()
	l.kernelProbes()
	l.hashProbes()
	l.sparseProbes()
	l.countsketchProbes()
	l.normProbes()
	l.coreProbes()
	l.duplicatesProbes()
	for _, step := range []func() error{l.serializeProbes, l.engineProbes, l.checkpointProbes,
		l.wireProbes, l.mergeTreeProbes, l.registryProbes, l.httpProbes} {
		if err := step(); err != nil {
			return rep, err
		}
	}
	u1, s1 := selfCPUSplit()
	l.set("proc.cpu_user_s", (u1 - u0).Seconds(), "s", 1)
	l.set("proc.cpu_sys_s", (s1 - s0).Seconds(), "s", 1)
	l.set("trace.overhead_share", l.tr.overheadShare(), "ratio", len(l.tr.spans))
	l.derive()

	if err := l.tr.write(filepath.Join(e.outDir, "trace."+w.name+".jsonl")); err != nil {
		return rep, err
	}
	return report{Workload: w.name, Samples: l.count,
		result: result{Correct: true, Attempted: int64(len(l.tr.spans)), Metrics: l.vals}}, nil
}

// shapes reads the dimensions the probes need off shadow samplers, as the
// program would build them for this workload's n.
func (l *ladder) shapes() {
	l.n = l.in.spec.N
	l0 := core.NewL0Sampler(core.L0Config{N: l.n, Delta: l0Delta}, l.r)
	lp := core.NewLpSampler(core.LpConfig{P: 1, N: l.n, Eps: lpEps, Delta: lpDelta}, l.r)
	l.s, l.levels = l0.S(), l0.Levels()
	l.k, l.m, l.copies = lp.K(), lp.M(), lp.Copies()
	l.lpRows = max(7, bits.Len(uint(l.n-1))+4) // the sampler's l = ⌈log₂ n⌉ + 4
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

func (l *ladder) kernelProbes() {
	const m = countsketch.BucketFactor * 64
	h0, h1, g0, g1 := uint64(field.New(l.r.Uint64())), uint64(field.New(l.r.Uint64())),
		uint64(field.New(l.r.Uint64())), uint64(field.New(l.r.Uint64()))
	cells := make([]float64, m)
	// Each element keeps its buckets for the scatter below.
	bkts := make(map[int][]uint64, len(l.els))
	for _, el := range l.els {
		b := make([]uint64, len(el.keys))
		for i := range b {
			b[i] = 1 // touched here, so that the first span pays no page fault
		}
		bkts[el.idx] = b
	}
	sgn := make([]float64, frameLen)
	l.each("kernel.bucketsign", func(el *element) (int, int) {
		kernel.BucketSign2(h0, h1, g0, g1, m, el.keys, bkts[el.idx], sgn[:len(el.keys)])
		return len(el.keys), 0
	})
	l.each("kernel.scatter", func(el *element) (int, int) {
		kernel.ScatterAddF64(nil, cells, bkts[el.idx], el.deltas)
		return len(el.keys), 0
	})

	synd := make([]uint64, 2*l.s)
	l.each("kernel.syndrome", func(el *element) (int, int) {
		f := el.frame
		for i := 0; i+4 <= len(f); i += 4 {
			var d, a [4]uint64
			for j := 0; j < 4; j++ {
				d[j] = uint64(field.FromInt64(f[i+j].Delta))
				a[j] = uint64(field.New(uint64(f[i+j].Index) + 1))
			}
			kernel.SyndromeAdd4(synd, d, a)
		}
		return len(f) &^ 3, 0
	})
	pc := field.NewPowCache(field.New(l.r.Uint64() | 1))
	l.each("field.powcache", func(el *element) (int, int) {
		var acc field.Elem
		for _, k := range el.keys {
			acc = field.Add(acc, pc.Pow(k))
		}
		sink += uint64(acc)
		return len(el.keys), 0
	})
	// One batched walk per update over its K consecutive blocks, stride
	// apart from the next coordinate's, as the L0 sampler's membership test
	// lays them out.
	K := max(1, l.levels-1)
	stride := uint64(1)
	for stride < uint64(K) {
		stride <<= 1
	}
	gen := prng.New((uint64(l.n)*stride+uint64(l.levels))*prng.BlockBits, l.r)
	idx, blks := make([]uint64, K), make([]uint64, K)
	l.each("prng.block", func(el *element) (int, int) {
		for _, k := range el.keys {
			for t := range idx {
				idx[t] = k*stride + uint64(t)
			}
			gen.BlockBatch(blks, idx)
			sink += blks[0]
		}
		return len(el.keys) * K, 0
	})
	l.fromSpans("kernel.bucketsign_ns_per_key", "kernel.bucketsign", inNS)
	l.fromSpans("kernel.scatter_ns_per_key", "kernel.scatter", inNS)
	l.fromSpans("kernel.syndrome_ns_per_update", "kernel.syndrome", inNS)
	l.fromSpans("field.powcache_ns", "field.powcache", inNS)
	l.fromSpans("prng.block_ns_per_block", "prng.block", inNS)
}

func (l *ladder) hashProbes() {
	const m = countsketch.BucketFactor * 64
	h, g := hash.NewFlatFamily(12, 2, l.r), hash.NewFlatFamily(12, 2, l.r)
	kw := hash.NewFlatFamily(1, l.k, l.r)
	s4 := hash.NewFlatFamily(1, 4, l.r)
	f8 := hash.NewFlatFamily(1, 8, l.r)
	bkt := make([]uint64, frameLen)
	out := make([]float64, frameLen)
	l.each("hash.bucketsign", func(el *element) (int, int) {
		hash.BucketSignBatch(h, g, 0, m, el.keys, bkt, out)
		return len(el.keys), 0
	})
	l.each("hash.kwise_float", func(el *element) (int, int) {
		kw.Float64Batch(0, el.keys, out[:len(el.keys)])
		return len(el.keys), 0
	})
	l.each("hash.sign4", func(el *element) (int, int) {
		s4.SignBatch(0, el.keys, out[:len(el.keys)])
		return len(el.keys), 0
	})
	l.each("hash.float8", func(el *element) (int, int) {
		f8.Float64Batch(0, el.keys, out[:len(el.keys)])
		return len(el.keys), 0
	})
	l.fromSpans("hash.bucketsign_ns_per_key", "hash.bucketsign", inNS)
	l.fromSpans("hash.kwise_float_ns_per_key", "hash.kwise_float", inNS)
	l.fromSpans("hash.sign4_ns_per_key", "hash.sign4", inNS)
	l.fromSpans("hash.float8_ns_per_key", "hash.float8", inNS)
}

func (l *ladder) sparseProbes() {
	rc := sparse.New(l.n, l.s, l.r)
	l.each("sparse.fold", func(el *element) (int, int) {
		rc.ProcessBatch(el.frame)
		return len(el.frame), 0
	})
	l.fromSpans("sparse.fold_ns_per_update", "sparse.fold", inNS)
}

func (l *ladder) countsketchProbes() {
	cs := countsketch.New(64, 12, l.r)
	l.each("countsketch.fold", func(el *element) (int, int) {
		cs.ProcessBatch(el.frame)
		return len(el.frame), 0
	})
	lpCS := countsketch.New(l.m, l.lpRows, l.r)
	l.each("countsketch.addbatch", func(el *element) (int, int) {
		lpCS.AddBatch(el.keys, el.deltas)
		return len(el.keys), 0
	})
	for rep := 0; rep < 3; rep++ {
		l.once("countsketch.decode", 1, func() { sink += uint64(len(lpCS.Decode(l.n))) })
	}
	l.fromSpans("countsketch.fold_ns_per_update", "countsketch.fold", inNS)
	l.fromSpans("countsketch.addbatch_ns_per_update", "countsketch.addbatch", inNS)
	l.fromSpans("countsketch.decode_ms", "countsketch.decode", inMS)
}

func (l *ladder) normProbes() {
	st := norm.NewStable(1, 80, l.r)
	l.each("norm.stable", func(el *element) (int, int) {
		st.AddFloatBatch(el.keys, el.deltas)
		return len(el.keys), 0
	})
	ams := norm.NewAMS(9, 6, l.r)
	l.each("norm.ams", func(el *element) (int, int) {
		ams.AddFloatBatch(el.keys, el.deltas)
		return len(el.keys), 0
	})
	l.fromSpans("norm.stable_ns_per_update", "norm.stable", inNS)
	l.fromSpans("norm.ams_ns_per_update", "norm.ams", inNS)
}

func (l *ladder) coreProbes() {
	seed := l.r.Uint64()
	newL0 := func() *core.L0Sampler {
		return core.NewL0Sampler(core.L0Config{N: l.n, Delta: l0Delta}, rand.New(rand.NewPCG(seed, seed)))
	}
	l0 := newL0()
	l.each("core.l0_fold", func(el *element) (int, int) {
		l0.ProcessBatch(el.frame)
		return len(el.frame), 0
	})
	for q := 0; q < 32; q++ {
		l0.Process(stream.Update{Index: l.r.IntN(l.n), Delta: 1})
		l.once("core.l0_sample", 1, func() {
			sm, _ := l0.Sample()
			sink += uint64(sm.Index)
		})
	}
	// Merging a zero replica marks every level dirty, so each RecoverLevel
	// below decodes: the dense low levels fail fast, the sparse ones solve.
	for round := 0; round < 4; round++ {
		if err := l0.Merge(newL0()); err != nil {
			panic(err) // same-seed replicas by construction
		}
		for k := 0; k < l0.Levels(); k++ {
			l.once("sparse.recover", 1, func() {
				rec, _ := l0.RecoverLevel(k)
				sink += uint64(len(rec))
			})
		}
	}

	lp := core.NewLpSampler(core.LpConfig{P: 1, N: l.n, Eps: lpEps, Delta: lpDelta}, l.r)
	l.each("core.lp_fold", func(el *element) (int, int) {
		lp.ProcessBatch(el.frame)
		return len(el.frame), 0
	})
	for q := 0; q < 2; q++ {
		lp.Process(stream.Update{Index: l.r.IntN(l.n), Delta: 1})
		l.once("core.lp_sample", 1, func() {
			sm, _ := lp.Sample()
			sink += uint64(sm.Index)
		})
	}
	l.fromSpans("core.l0_fold_ns_per_update", "core.l0_fold", inNS)
	l.fromSpans("core.l0_sample_us", "core.l0_sample", inUS)
	l.fromSpans("sparse.recover_us", "sparse.recover", inUS)
	l.fromSpans("core.lp_fold_ns_per_update", "core.lp_fold", inNS)
	l.fromSpans("core.lp_sample_ms", "core.lp_sample", inMS)
}

func (l *ladder) duplicatesProbes() {
	// NewFinderForRestore skips the n-update pigeonhole prefix: the probe
	// times calls, not answers.
	f := duplicates.NewFinderForRestore(l.n, lpDelta, l.r)
	l.each("duplicates.item", func(el *element) (int, int) {
		keys := el.keys[:min(dupItemsPer, len(el.keys))]
		for _, k := range keys {
			f.ProcessItem(int(k))
		}
		return len(keys), 0
	})
	l.once("duplicates.find", 1, func() { sink += uint64(f.Find().Kind) })
	l.fromSpans("duplicates.item_ns", "duplicates.item", inNS)
	l.fromSpans("duplicates.find_ms", "duplicates.find", inMS)
}

// loadBlobs is every element's blob as a sketch.
func (l *ladder) loadBlobs() ([]streamsample.Sketch, error) {
	loaded := make([]streamsample.Sketch, len(l.els))
	for i, el := range l.els {
		var err error
		if loaded[i], err = streamsample.Load(el.blob); err != nil {
			return nil, err
		}
	}
	return loaded, nil
}

func (l *ladder) serializeProbes() error {
	acc, err := l.in.spec.Build()
	if err != nil {
		return err
	}
	loaded, err := l.loadBlobs()
	if err != nil {
		return err
	}
	var ferr error
	l.each("serialize.load", func(el *element) (int, int) {
		if _, err := streamsample.Load(el.blob); err != nil {
			ferr = err
		}
		return 1, len(el.blob)
	})
	i := 0
	l.each("serialize.merge", func(el *element) (int, int) {
		if err := acc.Merge(loaded[i]); err != nil {
			ferr = err
		}
		i++
		return 1, len(el.blob)
	})
	size := 0
	l.each("serialize.marshal", func(el *element) (int, int) {
		b, err := acc.MarshalBinary()
		if err != nil {
			ferr = err
		}
		size = len(b)
		return 1, len(b)
	})
	l.fromSpans("serialize.load_us", "serialize.load", inUS)
	l.fromSpans("serialize.merge_us", "serialize.merge", inUS)
	l.fromSpans("serialize.marshal_us", "serialize.marshal", inUS)
	l.set("serialize.bytes", float64(size), "B", len(l.els))
	return ferr
}

// engineConfig mirrors the defaults sketchd ships for every sketch's
// private engine.
var sketchdEngine = engine.Config{Shards: 4, BatchSize: 2048, QueueDepth: 8, CheckpointEvery: 1 << 16}

// noMarshal turns Engine.Snapshot into the only barrier the engine exposes:
// it waits for every in-flight batch and marshals nothing.
func noMarshal(stream.Sink) ([]byte, error) { return nil, nil }

func (l *ladder) engineProbes() error {
	kit := l.in.sink
	newEngine := func(cfg engine.Config) *engine.Engine[stream.Sink] {
		return engine.New(cfg, func(int) stream.Sink { return kit.build() }, kit.merge)
	}
	var ferr error
	// through pushes the slice through eng as spans named name, then drains.
	through := func(name string, eng *engine.Engine[stream.Sink]) {
		l.each(name, func(el *element) (int, int) {
			eng.ProcessBatch(el.frame)
			return len(el.frame), 0
		})
		l.once(name+".drain", 0, func() {
			if _, err := eng.Snapshot(noMarshal); err != nil {
				ferr = err
			}
		})
	}

	serial := kit.build()
	l.each("sink.fold", func(el *element) (int, int) {
		stream.ProcessAll(serial, el.frame)
		return len(el.frame), 0
	})

	one := newEngine(engine.Config{Shards: 1})
	through("engine.process", one)
	one.Close()

	par := newEngine(engine.Config{Shards: l.e.procs})
	through("engine.parallel", par)
	l.once("engine.results", 1, func() {
		if _, err := par.Results(); err != nil {
			ferr = err
		}
	})

	snap := newEngine(engine.Config{Shards: sketchdEngine.Shards})
	for i := range l.els {
		el := &l.els[i]
		snap.ProcessBatch(el.frame)
		if _, err := snap.Snapshot(noMarshal); err != nil { // the fold is not the snapshot's cost
			ferr = err
		}
		l.tr.time("engine.snapshot", el.idx, func() (int, int) {
			if _, err := snap.Snapshot(kit.marshal); err != nil {
				ferr = err
			}
			return 1, 0
		})
	}
	snap.Close()

	// The cut below the registry: sketchd's engine over the served sketch,
	// bound to a store, whatever the workload's own engine folds into.
	served, err := specSink(l.in.spec)
	if err != nil {
		return err
	}
	store, err := checkpoint.Open(filepath.Join(l.dir, "engine"), checkpoint.Options{})
	if err != nil {
		return err
	}
	dur := engine.New(sketchdEngine, func(int) stream.Sink { return served.build() }, served.merge)
	if err := dur.CheckpointTo(store, served.marshal, served.restore); err != nil {
		dur.Close()
		return errors.Join(err, store.Close())
	}
	through("engine.durable", dur)
	st := dur.Stats()
	ferr = errors.Join(ferr, dur.DurabilityErr())
	dur.Close()
	if err := store.Close(); err != nil {
		return err
	}

	l.fromSpans("sink.fold_ns_per_update", "sink.fold", inNS)
	l.fromThrough("engine.process_ns_per_update", "engine.process")
	l.fromThrough("engine.durable_ns_per_update", "engine.durable")
	l.fromSpans("engine.results_ms", "engine.results", inMS)
	l.fromSpans("engine.snapshot_us", "engine.snapshot", inUS)
	parallel, n := l.tr.throughUnit("engine.parallel")
	l.set("engine.speedup", l.vals["sink.fold_ns_per_update"].Value/parallel, "ratio", n)
	l.set("engine.routed", float64(st.Routed), "count", 1)
	l.set("engine.checkpoints", float64(st.Checkpoints), "count", 1)
	l.set("engine.spilled_updates", float64(st.SpilledUpdates), "count", 1)
	l.set("engine.steals", float64(st.Steals), "count", 1)
	return ferr
}

// dirBytes is the total size of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func (l *ladder) checkpointProbes() error {
	dir := filepath.Join(l.dir, "store")
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	// The state a generation holds: one blob per sketchd engine shard.
	s := l.in.sink.build()
	for _, el := range l.els {
		stream.ProcessAll(s, el.frame)
	}
	blob, err := l.in.sink.marshal(s)
	if err != nil {
		return err
	}
	states := make([][]byte, sketchdEngine.Shards)
	for i := range states {
		states[i] = blob
	}
	var ferr error
	save := func() {
		l.once("checkpoint.save", 1, func() {
			if _, err := store.Save(states); err != nil {
				ferr = err
			}
		})
	}
	save()
	before, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.each("checkpoint.append", func(el *element) (int, int) {
		if err := store.Append(el.frame); err != nil {
			ferr = err
		}
		return len(el.frame), 16 * len(el.frame)
	})
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		l.once("checkpoint.latest", 1, func() {
			if _, err := store.Latest(); err != nil {
				ferr = err
			}
		})
	}
	save()
	save()
	l.fromSpans("checkpoint.append_ns_per_update", "checkpoint.append", inNS)
	l.set("checkpoint.journal_bytes_per_update", float64(after-before)/float64(l.updates()), "B", len(l.els))
	l.fromSpans("checkpoint.save_ms", "checkpoint.save", inMS)
	l.fromSpans("checkpoint.latest_ms", "checkpoint.latest", inMS)
	return ferr
}

func (l *ladder) wireProbes() error {
	var ferr error
	wire := make([][]byte, len(l.els))
	i := 0
	l.each("wire.encode", func(el *element) (int, int) {
		wire[i] = sketchd.AppendFrame(nil, el.frame)
		i++
		return len(el.frame), len(wire[i-1])
	})
	i = 0
	total := 0
	l.each("wire.decode", func(el *element) (int, int) {
		got, err := sketchd.NewFrameReader(bytes.NewReader(wire[i]), l.n).Next()
		if err != nil || len(got) != len(el.frame) {
			ferr = fmt.Errorf("frame %d does not decode to its %d updates: %v", el.idx, len(el.frame), err)
		}
		total += len(wire[i])
		i++
		return len(el.frame), len(wire[i-1])
	})
	l.fromSpans("wire.encode_ns_per_update", "wire.encode", inNS)
	l.fromSpans("wire.decode_ns_per_update", "wire.decode", inNS)
	l.set("wire.bytes_per_update", float64(total)/float64(l.updates()), "B", len(l.els))
	return ferr
}

func (l *ladder) mergeTreeProbes() error {
	tree := sketchd.NewMergeTree(8, 64, l.in.spec.Build) // the shape sketchd ships
	var ferr error
	loaded, err := l.loadBlobs()
	if err != nil {
		return err
	}
	for round := 0; round < treeRounds; round++ {
		i := 0
		l.each("mergetree.add", func(el *element) (int, int) {
			if err := tree.Add(loaded[i]); err != nil {
				ferr = err
			}
			i++
			return 1, len(el.blob)
		})
	}
	st := tree.Stats()
	acc, err := l.in.spec.Build()
	if err != nil {
		return err
	}
	l.once("mergetree.flush", 1, func() {
		if _, err := tree.FlushInto(acc); err != nil {
			ferr = err
		}
	})
	l.fromSpans("mergetree.add_us", "mergetree.add", inUS)
	l.fromSpans("mergetree.flush_us", "mergetree.flush", inUS)
	l.set("mergetree.uploads", float64(st.Uploads), "count", 1)
	l.set("mergetree.leaf_folds", float64(st.LeafFolds), "count", 1)
	l.set("mergetree.rejected", float64(st.Rejected), "count", 1)
	return ferr
}

func (l *ladder) registryProbes() error {
	cfg := sketchd.RegistryConfig{Dir: filepath.Join(l.dir, "registry")}
	reg, err := sketchd.OpenRegistry(cfg)
	if err != nil {
		return err
	}
	var ferr error
	before := runtime.NumGoroutine()
	for i := 0; i < shadowCount; i++ {
		l.once("registry.create", 1, func() {
			if err := reg.Create("bench", fmt.Sprintf("s%d", i), l.in.spec); err != nil {
				ferr = err
			}
		})
	}
	l.set("registry.goroutines_per_sketch", float64(runtime.NumGoroutine()-before)/shadowCount, "count", shadowCount)
	if ferr != nil {
		return errors.Join(ferr, reg.Drain())
	}
	ent, err := reg.Get("bench", "s0")
	if err != nil {
		return errors.Join(err, reg.Drain())
	}
	l.each("registry.ingest", func(el *element) (int, int) {
		if err := ent.IngestRaw(el.frame); err != nil {
			ferr = err
		}
		return len(el.frame), 0
	})
	l.once("registry.ingest.drain", 0, func() {
		if _, err := ent.Merged(); err != nil {
			ferr = err
		}
	})
	l.each("registry.upload", func(el *element) (int, int) {
		if _, err := ent.IngestSketch(el.blob, false, 64); err != nil {
			ferr = err
		}
		return 1, len(el.blob)
	})
	for rep := 0; rep < l.queryReps(); rep++ {
		var merged streamsample.Sketch
		l.once("registry.merged", 1, func() {
			if merged, err = ent.Merged(); err != nil {
				ferr = err
			}
		})
		// What /sample does with the merged sketch, on the same state.
		l.once("registry.sample", 1, func() {
			switch m := merged.(type) {
			case *streamsample.L0Sampler:
				i, _, _ := m.Sample()
				sink += uint64(i)
			case *streamsample.LpSampler:
				i, _, _ := m.Sample()
				sink += uint64(i)
			}
		})
	}
	l.once("registry.drain", 1, func() { ferr = errors.Join(ferr, reg.Drain()) })
	l.once("registry.open", shadowCount, func() {
		if reg, err = sketchd.OpenRegistry(cfg); err != nil {
			ferr = err
		}
	})
	if err != nil {
		return errors.Join(ferr, err)
	}
	rs, _ := reg.Statsz()
	ferr = errors.Join(ferr, reg.Drain())

	l.fromSpans("registry.create_ms", "registry.create", inMS)
	l.fromThrough("registry.ingest_ns_per_update", "registry.ingest")
	l.fromSpans("registry.upload_us", "registry.upload", inUS)
	l.fromSpans("registry.merged_us", "registry.merged", inUS)
	l.fromSpans("registry.drain_ms", "registry.drain", inMS)
	l.fromSpans("registry.open_ms_per_sketch", "registry.open", inMS)
	l.set("registry.recovered", float64(rs.Recovered), "count", 1)
	l.set("registry.quarantined", float64(rs.Quarantined), "count", 1)
	return ferr
}

// queryReps is how often the serving ladder queries: an Lp query decodes
// every repetition of the sampler, hundreds of milliseconds each time.
func (l *ladder) queryReps() int {
	if l.in.spec.Kind == "lp" {
		return 2
	}
	return 8
}

// httpServer is an in-process sketchd: a registry on disk behind an httptest
// listener, with one sketch created.
type httpServer struct {
	reg *sketchd.Registry
	ts  *httptest.Server
	cl  *sketchd.Client
}

func (l *ladder) newHTTPServer(name string) (*httpServer, error) {
	reg, err := sketchd.OpenRegistry(sketchd.RegistryConfig{Dir: filepath.Join(l.dir, name)})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(sketchd.NewServer(reg))
	h := &httpServer{reg: reg, ts: ts, cl: sketchd.NewClient(ts.URL)}
	ctx := context.Background()
	if err := h.cl.Create(ctx, "bench", "s", l.in.spec); err != nil {
		return nil, errors.Join(err, h.close())
	}
	// One request to a second sketch opens the connection and faults the
	// handler path in, so that neither the traced nor the untraced pass
	// pays for being first.
	err = h.cl.Create(ctx, "bench", "warm", l.in.spec)
	if err == nil {
		_, err = h.cl.PushUpdates(ctx, "bench", "warm", l.els[0].frame)
	}
	if err != nil {
		return nil, errors.Join(err, h.close())
	}
	return h, nil
}

func (h *httpServer) close() error {
	h.ts.Close()
	return h.reg.Drain()
}

func (l *ladder) httpProbes() (err error) {
	ctx := context.Background()
	h, err := l.newHTTPServer("http")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, h.close()) }()
	var ferr error

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.each("http.ingest", func(el *element) (int, int) {
		if _, err := h.cl.PushUpdates(ctx, "bench", "s", el.frame); err != nil {
			ferr = err
		}
		return len(el.frame), 16 * len(el.frame)
	})
	l.once("http.ingest.drain", 0, func() {
		if _, err := h.cl.Bytes(ctx, "bench", "s"); err != nil {
			ferr = err
		}
	})
	runtime.ReadMemStats(&m1)
	l.set("proc.allocs_per_update", float64(m1.Mallocs-m0.Mallocs)/float64(l.updates()), "count", 1)
	l.set("proc.alloc_bytes_per_update", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(l.updates()), "B", 1)

	l.each("http.upload", func(el *element) (int, int) {
		if err := h.cl.PushSketch(ctx, "bench", "s", el.blob, false); err != nil {
			ferr = err
		}
		return 1, len(el.blob)
	})
	for q := 0; q < l.queryReps(); q++ {
		l.once("http.sample", 1, func() {
			if _, err := h.cl.Sample(ctx, "bench", "s"); err != nil {
				ferr = err
			}
		})
	}
	if threads, err := procStatus(0, "Threads"); err == nil {
		l.set("proc.threads", float64(threads), "count", 1)
	}
	if fds, err := openFDs(); err == nil {
		l.set("proc.fds", float64(fds), "count", 1)
	}

	l.fromThrough("http.ingest_ns_per_update", "http.ingest")
	return ferr
}

// derive computes the self times: a cut's cost minus the cuts below it, at
// the multiplicity with which the cut calls them.
func (l *ladder) derive() {
	v := func(name string) float64 { return l.vals[name].Value }
	// An L0 update walks K PRG blocks and folds into level 0 plus every
	// level k whose subset holds it, which is 2^k/n of them in expectation.
	folds := 1.0
	for k := 1; k < l.levels; k++ {
		folds += float64(uint64(1)<<k) / float64(l.n)
	}
	l.set("core.l0_self_ns_per_update", v("core.l0_fold_ns_per_update")-
		float64(l.levels-1)*v("prng.block_ns_per_block")-folds*v("sparse.fold_ns_per_update"), "ns", l.count["core.l0_fold_ns_per_update"])
	// An Lp update feeds the shared p-stable sketch once and every
	// repetition's scaling hash, count-sketch and AMS sketch.
	l.set("core.lp_self_ns_per_update", v("core.lp_fold_ns_per_update")-v("norm.stable_ns_per_update")-
		float64(l.copies)*(v("hash.kwise_float_ns_per_key")+v("countsketch.addbatch_ns_per_update")+v("norm.ams_ns_per_update")), "ns",
		l.count["core.lp_fold_ns_per_update"])
	// Cuts that hand work on are compared by their cost over the whole
	// slice, drain included, so both sides of a subtraction are means.
	through := func(name string) float64 {
		v, _ := l.tr.throughUnit(name)
		return v
	}
	l.set("engine.self_ns_per_update", through("engine.process")-through("sink.fold"), "ns", l.count["engine.process_ns_per_update"])
	l.set("registry.self_ns_per_update", through("registry.ingest")-through("engine.durable"), "ns", l.count["registry.ingest_ns_per_update"])
	l.set("http.self_ns_per_update", through("http.ingest")-through("registry.ingest")-
		through("wire.encode")-through("wire.decode"), "ns", l.count["http.ingest_ns_per_update"])
	upload, n := l.tr.perUnit("http.upload")
	l.set("http.upload_self_us", upload*inUS.perNS-v("registry.upload_us"), "us", n)
	sample, n := l.tr.perUnit("http.sample")
	query, _ := l.tr.perUnit("registry.sample")
	l.set("http.sample_self_us", (sample-query)*inUS.perNS-v("registry.merged_us"), "us", n)
}
