package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"testing"
)

// The tests run every workload at 1/256 of its full size.
var testEnv *env

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	testEnv = &env{seed: 1, scale: 1.0 / 256, procs: procs, outDir: dir}
	if err := buildSketchd(testEnv); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

// firstRuns holds each workload's untraced report from TestDeclaredIsEmitted
// for TestCountsRepeat to compare a second run against.
var firstRuns sync.Map

func names(ms []declaredMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func emitted(r report) []string {
	out := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted holds a report to the declared list: every declared metric
// with its unit, and nothing undeclared.
func checkEmitted(t *testing.T, r report, declared []declaredMetric) {
	t.Helper()
	if got, want := fmt.Sprint(emitted(r)), fmt.Sprint(names(declared)); got != want {
		t.Errorf("emitted metrics differ from BENCHMARK.json:\n got %s\nwant %s", got, want)
	}
	for _, m := range declared {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		if got := r.Metrics[m.Name].Unit; got != m.Unit {
			t.Errorf("%s: unit %q, declared %q", m.Name, got, m.Unit)
		}
	}
}

// checkNothingSurvives fails if a sketchd child or a scratch directory of a
// finished workload is still there.
func checkNothingSurvives(t *testing.T, prefix string) {
	t.Helper()
	ents, err := os.ReadDir(testEnv.outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() && len(ent.Name()) > len(prefix) && ent.Name()[:len(prefix)+1] == prefix+"-" {
			t.Errorf("scratch directory %s survived", ent.Name())
		}
	}
}

func TestDeclaredIsEmitted(t *testing.T) {
	d, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(d.Workloads), len(workloads))
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in seconds, lower is better")
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, d.Workloads[i].Name, w.name)
		}
		if d.Workloads[i].Why != w.why {
			t.Errorf("%s: BENCHMARK.json's why differs from the harness's", w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o, err := w.run(testEnv)
			if err != nil {
				t.Fatal(err)
			}
			r := o.endToEnd(w.name)
			if !r.Correct {
				t.Error("state not byte-identical to serial ingestion")
			}
			checkEmitted(t, r, d.EndToEnd)
			for n, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g: end-to-end metrics must never be 0", n, m.Value)
				}
			}
			firstRuns.Store(w.name, r)
			checkNothingSurvives(t, w.name)

			tr, err := runTraced(testEnv, w)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, tr, d.PerLayer)
			if info, err := os.Stat(testEnv.outDir + "/trace." + w.name + ".jsonl"); err != nil || info.Size() == 0 {
				t.Errorf("no spans written for %s: %v", w.name, err)
			}
			checkNothingSurvives(t, "trace-"+w.name)
		})
	}
}

func TestCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			v, ok := firstRuns.Load(w.name)
			if !ok {
				t.Skip("no first run to compare with")
			}
			first := v.(report)
			o, err := w.run(testEnv)
			if err != nil {
				t.Fatal(err)
			}
			second := o.endToEnd(w.name)
			if fmt.Sprint(first.Counts) != fmt.Sprint(second.Counts) {
				t.Errorf("counts differ between two runs of seed %d:\n%v\n%v", testEnv.seed, first.Counts, second.Counts)
			}
			for _, exact := range []string{"sketch_bytes"} {
				if a, b := first.Metrics[exact].Value, second.Metrics[exact].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %g, %g", exact, a, b)
				}
			}
			other := *testEnv
			other.seed++
			if a, b := digest(w.inputs(testEnv).frames, 4096), digest(w.inputs(&other).frames, 4096); a == b {
				t.Errorf("seeds %d and %d generate the same input", testEnv.seed, other.seed)
			}
		})
	}
}

// TestReferenceIsSerialIngestion pins the shortcut the byte checks take:
// a sketch fed the net vector holds the bytes of one fed the stream.
func TestReferenceIsSerialIngestion(t *testing.T) {
	fs := frames(turnstile(l0N, 40_000, rng(7, "reference")), frameLen)
	x := make([]int64, l0N)
	apply(x, fs, 3)

	spec := l0Spec(l0N)
	serial, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		for _, f := range fs {
			serial.ProcessBatch(f)
		}
	}
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := l0Reference(spec, x)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("an L0 sampler fed the net vector differs from one fed the stream")
	}

	cs, ref := newCS(), newCS()
	for pass := 0; pass < 3; pass++ {
		for _, f := range fs {
			for _, u := range f {
				cs.Process(u)
			}
		}
	}
	ref.ProcessBatch(asUpdates(x))
	a, _ := marshalCS(cs)
	b, _ := marshalCS(ref)
	if string(a) != string(b) {
		t.Error("a count-sketch fed the net vector differs from one fed the stream")
	}
}

// TestChildIsReaped: closing a served instance leaves neither the process
// nor its data directory behind.
func TestChildIsReaped(t *testing.T) {
	s, err := serve(testEnv, "reap")
	if err != nil {
		t.Fatal(err)
	}
	pid, dir := s.child.pid(), s.dir
	if err := syscall.Kill(pid, 0); err != nil {
		t.Fatalf("child %d is not running: %v", pid, err)
	}
	s.close()
	s.close() // closing twice is harmless
	if err := syscall.Kill(pid, 0); err == nil {
		t.Errorf("child %d survived close", pid)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("data directory %s survived close: %v", dir, err)
	}
	live.Lock()
	n := len(live.set)
	live.Unlock()
	if n != 0 {
		t.Errorf("%d children still registered as live", n)
	}
}
