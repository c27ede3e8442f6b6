package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/retry"
	"repro/internal/sketchd"
	"repro/internal/stream"
)

// Full sizes of the serve workloads.
const (
	serveRawPasses  = 3
	serveRawQueries = 200

	uploadBlobs      = 1024
	uploadBlobLen    = 1000
	uploadRounds     = 32
	uploadQueries    = 200
	mixedSketches    = 256
	mixedTenants     = 16
	mixedN           = 1 << 14
	mixedFrameLen    = 256
	mixedPushes      = 24576
	mixedSampleEvery = 8
	mixedChecked     = 32
)

// buildSketchd compiles cmd/sketchd into the output directory, once per
// process; every serve workload calls it before its clock starts. The go
// command leaves an up-to-date binary alone, so only the first run pays.
func buildSketchd(e *env) error {
	if e.sketchd != "" {
		return nil
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	bin := e.outDir + "/sketchd"
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/sketchd").CombinedOutput()
	if err != nil {
		return fmt.Errorf("building cmd/sketchd: %w\n%s", err, out)
	}
	e.sketchd = bin
	return nil
}

// live is every sketchd child not yet reaped, for the signal handler.
var live = struct {
	sync.Mutex
	set map[*child]struct{}
}{set: make(map[*child]struct{})}

func killLiveChildren() {
	live.Lock()
	defer live.Unlock()
	for c := range live.set {
		//nolint:errcheck // the process may have exited already
		_ = c.cmd.Process.Signal(syscall.SIGKILL)
		//nolint:errcheck // reaping only
		_ = c.cmd.Wait()
	}
}

// child is one running sketchd.
type child struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stdout reached EOF
}

// startChild runs the sketchd binary on a kernel-chosen loopback port with
// shipped defaults and returns once it printed the address it listens on,
// which it does after recovering everything under dataDir.
func startChild(e *env, dataDir string) (*child, error) {
	cmd := exec.Command(e.sketchd, "-addr", "127.0.0.1:0", "-data", dataDir)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", e.procs), "REPRO_FAULTS=")
	// Should the harness itself be killed, the child must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	live.Lock()
	live.set[c] = struct{}{}
	live.Unlock()
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	go func() {
		//nolint:errcheck // draining until the child exits
		_, _ = io.Copy(io.Discard, rd)
		close(c.drained)
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "sketchd: listening on ")
	if err != nil || !ok {
		c.kill()
		return nil, fmt.Errorf("sketchd did not announce its address (%q, %v): %s", line, err, stderr.String())
	}
	c.addr = addr
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill sends SIGKILL and reaps the child. It is safe to call twice.
func (c *child) kill() {
	if c.cmd.ProcessState != nil {
		return
	}
	//nolint:errcheck // the process may have exited already
	_ = c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.drained
	//nolint:errcheck // a killed child reports the signal, which is the point
	_ = c.cmd.Wait()
	live.Lock()
	delete(live.set, c)
	live.Unlock()
}

// conn is one closed-loop connection: a client whose transport keeps a
// single connection to the child.
type conn struct {
	*sketchd.Client
	tr *http.Transport
}

func dial(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &conn{
		Client: sketchd.NewClient("http://"+addr,
			sketchd.WithHTTPClient(&http.Client{Transport: tr}),
			// A retried request would hide a failure behind latency.
			sketchd.WithRetryPolicy(retry.Policy{Attempts: 1})),
		tr: tr,
	}
}

// served is a sketchd child with its data directory and connections.
type served struct {
	e     *env
	dir   string
	child *child
	conns []*conn
}

func serve(e *env, name string) (*served, error) {
	dir, err := e.tempDir(name)
	if err != nil {
		return nil, err
	}
	s := &served{e: e, dir: dir}
	if err := s.start(); err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	return s, nil
}

func (s *served) start() error {
	c, err := startChild(s.e, s.dir)
	if err != nil {
		return err
	}
	s.child = c
	s.conns = s.conns[:0]
	for i := 0; i < s.e.procs; i++ {
		s.conns = append(s.conns, dial(c.addr))
	}
	return nil
}

// stop kills the child and drops its connections; the data stays.
func (s *served) stop() {
	s.child.kill()
	for _, c := range s.conns {
		c.tr.CloseIdleConnections()
	}
}

// close stops the child and removes its data.
func (s *served) close() {
	s.stop()
	//nolint:errcheck // scratch under bench/out; the next run's MkdirTemp does not collide
	_ = os.RemoveAll(s.dir)
}

// each runs fn once per connection, concurrently, and waits for all.
func (s *served) each(fn func(c int, cl *conn)) {
	var wg sync.WaitGroup
	for i, cl := range s.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, cl)
		}()
	}
	wg.Wait()
}

// connOutcome is what one connection saw; merged after the phase so the
// connections share nothing while the clock runs.
type connOutcome struct {
	ingest, query                  []time.Duration
	attempted, failed, failAnswers int64
	accepted                       *atomic.Int64 // the phase's counter of ACKed updates; nil outside it
}

func (co *connOutcome) check(ok bool) {
	co.attempted++
	if !ok {
		co.failed++
	}
}

func (o *outcome) absorb(cos []connOutcome) {
	for _, co := range cos {
		o.ingest = append(o.ingest, co.ingest...)
		o.query = append(o.query, co.query...)
		o.attempted += co.attempted
		o.failed += co.failed
		o.failAnswers += co.failAnswers
	}
}

// measured runs the ingest phase on every connection; the process under
// test is the child.
func (s *served) measured(o *outcome, fn func(c int, cl *conn, co *connOutcome)) error {
	cos := make([]connOutcome, len(s.conns))
	var cpuErr error
	childCPU := func() time.Duration {
		d, err := procCPU(s.child.pid())
		if err != nil {
			cpuErr = err
		}
		return d
	}
	o.ingestPhase(childCPU, func(accepted *atomic.Int64) {
		s.each(func(c int, cl *conn) {
			cos[c].accepted = accepted
			fn(c, cl, &cos[c])
		})
	})
	o.absorb(cos)
	return cpuErr
}

// pushFrame sends one frame and counts the ACK.
func pushFrame(ctx context.Context, cl *conn, co *connOutcome, tenant, name string, f []stream.Update) {
	t := time.Now()
	res, err := cl.PushUpdates(ctx, tenant, name, f)
	co.ingest = append(co.ingest, time.Since(t))
	co.check(err == nil && res.Updates == int64(len(f)))
	if co.accepted != nil {
		co.accepted.Add(res.Updates)
	}
}

// sampleL0 draws one /sample and checks it against the vector the harness
// holds: the value exact and nonzero.
func sampleL0(ctx context.Context, cl *conn, co *connOutcome, tenant, name string, x []int64) {
	t := time.Now()
	res, err := cl.Sample(ctx, tenant, name)
	co.query = append(co.query, time.Since(t))
	if err == nil && !res.Ok {
		co.attempted++
		co.failAnswers++ // FAIL is an answer the paper allows; see outcome.failAnswers
		return
	}
	co.check(err == nil && res.Value != 0 && x[res.Index] == res.Value)
}

// l0Reference is the bytes a serial L0 sampler of the spec holds after the
// vector x: by linearity, the bytes of serial ingestion of any stream that
// sums to x (bench_test.go pins that equivalence).
func l0Reference(spec sketchd.Spec, x []int64) ([]byte, error) {
	s, err := spec.Build()
	if err != nil {
		return nil, err
	}
	s.ProcessBatch(asUpdates(x))
	return s.MarshalBinary()
}

// target names one served sketch and the vector it must hold.
type target struct {
	tenant, name string
	x            []int64
}

// checkServed fetches every target's /bytes and compares it with serial
// ingestion, returning the total bytes fetched.
func (s *served) checkServed(ctx context.Context, o *outcome, spec sketchd.Spec, targets []target, when string) (int, error) {
	total := 0
	for _, tg := range targets {
		want, err := l0Reference(spec, tg.x)
		if err != nil {
			return 0, err
		}
		got, err := s.conns[0].Bytes(ctx, tg.tenant, tg.name)
		if err != nil {
			o.check(false)
			fmt.Fprintf(os.Stderr, "bench: /bytes of %s/%s %s: %v\n", tg.tenant, tg.name, when, err)
			continue
		}
		o.checkBytes(fmt.Sprintf("/bytes of %s/%s %s", tg.tenant, tg.name, when), got, want)
		total += len(got)
	}
	return total, nil
}

// bringUp is the set-up every serve workload times: start a child, create
// the sketches, run the warm-up on the first connection. A failure in any
// step takes the child down again.
func bringUp(ctx context.Context, e *env, name string, spec sketchd.Spec, targets []target, warmUp func(cl *conn, co *connOutcome)) (*served, error) {
	s, err := serve(e, name)
	if err != nil {
		return nil, err
	}
	for _, tg := range targets {
		if err := s.conns[0].Create(ctx, tg.tenant, tg.name, spec); err != nil {
			s.close()
			return nil, err
		}
	}
	var co connOutcome
	warmUp(s.conns[0], &co)
	if co.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%d of %d warm-up requests failed", co.failed, co.attempted)
	}
	return s, nil
}

// queryAndCrash ends the two single-sketch workloads: /sample queries, the
// byte check, then SIGKILL and restart.
func (s *served) queryAndCrash(ctx context.Context, o *outcome, spec sketchd.Spec, tg target, queries int, sealFirst bool) (err error) {
	// One connection: two would queue on the sketch's lock and report each
	// other's service time.
	var qo connOutcome
	for q := 0; q < queries; q++ {
		sampleL0(ctx, s.conns[0], &qo, tg.tenant, tg.name, tg.x)
	}
	o.absorb([]connOutcome{qo})
	if o.sketchBytes, err = s.checkServed(ctx, o, spec, []target{tg}, "after ingest"); err != nil {
		return err
	}
	return s.crashAndRecover(ctx, o, spec, []target{tg}, sealFirst)
}

// crashAndRecover seals uploads if asked, SIGKILLs the child and times its
// restart on the same data up to the first /bytes of the first target; then
// every target is compared with serial ingestion again. One restart only: a
// second would find the journal tail already folded into a generation.
func (s *served) crashAndRecover(ctx context.Context, o *outcome, spec sketchd.Spec, targets []target, sealFirst bool) error {
	if kb, err := procStatus(s.child.pid(), "VmHWM"); err == nil {
		o.peakRSSKB = kb
	}
	if sealFirst {
		// Uploads are durable from the next seal on; raw updates need none.
		for _, tg := range targets {
			o.check(s.conns[0].Checkpoint(ctx, tg.tenant, tg.name) == nil)
		}
	}
	s.stop()
	t := time.Now()
	if err := s.start(); err != nil {
		return fmt.Errorf("restarting sketchd on %s: %w", s.dir, err)
	}
	_, err := s.conns[0].Bytes(ctx, targets[0].tenant, targets[0].name)
	o.recover = append(o.recover, time.Since(t))
	o.check(err == nil)
	_, err = s.checkServed(ctx, o, spec, targets, "after restart")
	return err
}

// ---------------------------------------------------------------------------
// serve_raw
// ---------------------------------------------------------------------------

func serveRawInputs(e *env) *ladderInputs {
	return &ladderInputs{spec: l0Spec(l0N), frames: l0Frames(e)}
}

func runServeRaw(e *env) (*outcome, error) {
	if err := buildSketchd(e); err != nil {
		return nil, err
	}
	ctx := context.Background()
	spec := l0Spec(l0N)
	one := l0Frames(e)
	calls := repeatFrames(one, serveRawPasses)
	warm := warmCalls(len(calls))
	queries := e.scaled(serveRawQueries, 20)
	x := make([]int64, l0N)
	apply(x, one, serveRawPasses)

	raw := target{"bench", "raw", x}
	o := &outcome{}
	var err error
	var s *served
	o.setup, s, err = timeSetups(func() (*served, error) {
		return bringUp(ctx, e, "serve_raw", spec, []target{raw}, func(cl *conn, co *connOutcome) {
			for _, f := range calls[:warm] {
				pushFrame(ctx, cl, co, raw.tenant, raw.name, f)
			}
		})
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	rest := calls[warm:]
	err = s.measured(o, func(c int, cl *conn, co *connOutcome) {
		for i := c; i < len(rest); i += len(s.conns) {
			pushFrame(ctx, cl, co, raw.tenant, raw.name, rest[i])
		}
	})
	if err != nil {
		return nil, err
	}

	if err := s.queryAndCrash(ctx, o, spec, raw, queries, false); err != nil {
		return nil, err
	}
	return o, nil
}

// ---------------------------------------------------------------------------
// serve_upload
// ---------------------------------------------------------------------------

// uploadFrames is the updates behind each exporter blob.
func uploadFrames(e *env) [][]stream.Update {
	blobs := e.scaled(uploadBlobs, 16)
	return frames(turnstile(l0N, blobs*uploadBlobLen, rng(e.seed, "serve_upload")), uploadBlobLen)
}

func serveUploadInputs(e *env) *ladderInputs {
	return &ladderInputs{spec: l0Spec(l0N), frames: uploadFrames(e)}
}

// fold builds the exporter's side of an upload: a same-seed sketch of one
// frame, serialized.
func fold(spec sketchd.Spec, f []stream.Update) ([]byte, error) {
	s, err := spec.Build()
	if err != nil {
		return nil, err
	}
	s.ProcessBatch(f)
	return s.MarshalBinary()
}

func runServeUpload(e *env) (*outcome, error) {
	if err := buildSketchd(e); err != nil {
		return nil, err
	}
	ctx := context.Background()
	spec := l0Spec(l0N)
	fs := uploadFrames(e)
	blobs := make([][]byte, len(fs))
	for i, f := range fs {
		var err error
		if blobs[i], err = fold(spec, f); err != nil {
			return nil, err
		}
	}
	uploads := len(blobs) * uploadRounds // upload k ships blob k mod len(blobs)
	warm := warmCalls(uploads)
	queries := e.scaled(uploadQueries, 20)
	x := make([]int64, l0N)
	apply(x, fs, uploadRounds)

	up := target{"bench", "up", x}
	upload := func(cl *conn, co *connOutcome, k int) {
		t := time.Now()
		err := cl.PushSketch(ctx, up.tenant, up.name, blobs[k%len(blobs)], false)
		co.ingest = append(co.ingest, time.Since(t))
		co.check(err == nil)
		if err == nil && co.accepted != nil {
			co.accepted.Add(uploadBlobLen) // an upload carries the updates its exporter folded
		}
	}

	o := &outcome{}
	var err error
	var s *served
	o.setup, s, err = timeSetups(func() (*served, error) {
		return bringUp(ctx, e, "serve_upload", spec, []target{up}, func(cl *conn, co *connOutcome) {
			for k := 0; k < warm; k++ {
				upload(cl, co, k)
			}
		})
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	err = s.measured(o, func(c int, cl *conn, co *connOutcome) {
		for k := warm + c; k < uploads; k += len(s.conns) {
			upload(cl, co, k)
		}
	})
	if err != nil {
		return nil, err
	}

	if err := s.queryAndCrash(ctx, o, spec, up, queries, true); err != nil {
		return nil, err
	}
	return o, nil
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

func mixedFrames(e *env) [][]stream.Update {
	pushes := e.scaled(mixedPushes, 64)
	return frames(turnstile(mixedN, pushes*mixedFrameLen, rng(e.seed, "serve_mixed")), mixedFrameLen)
}

func serveMixedInputs(e *env) *ladderInputs {
	return &ladderInputs{spec: l0Spec(mixedN), frames: mixedFrames(e)}
}

func runServeMixed(e *env) (*outcome, error) {
	if err := buildSketchd(e); err != nil {
		return nil, err
	}
	ctx := context.Background()
	spec := l0Spec(mixedN)
	fs := mixedFrames(e)
	warm := warmCalls(len(fs))
	sketches := e.scaled(mixedSketches, 2*e.procs)
	all := make([]target, sketches)
	for i := range all {
		all[i] = target{fmt.Sprintf("t%02d", i%mixedTenants), fmt.Sprintf("s%03d", i), make([]int64, mixedN)}
	}
	// Push k goes to connection k mod conns, which walks the sketches it
	// owns (those congruent to it) round-robin; only that connection ever
	// touches them, so it knows their vectors at every /sample.
	sketchOf := func(k, conns int) int {
		c, turn := k%conns, k/conns
		owned := (sketches - c + conns - 1) / conns
		return c + conns*(turn%owned)
	}

	o := &outcome{}
	var err error
	var s *served
	o.setup, s, err = timeSetups(func() (*served, error) {
		return bringUp(ctx, e, "serve_mixed", spec, all, func(cl *conn, co *connOutcome) {
			for k, f := range fs[:warm] {
				tg := all[sketchOf(k, e.procs)]
				pushFrame(ctx, cl, co, tg.tenant, tg.name, f)
			}
		})
	}, (*served).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	for k, f := range fs[:warm] {
		apply(all[sketchOf(k, len(s.conns))].x, [][]stream.Update{f}, 1)
	}

	err = s.measured(o, func(c int, cl *conn, co *connOutcome) {
		for k := warm; k < len(fs); k++ {
			if k%len(s.conns) != c {
				continue
			}
			tg := all[sketchOf(k, len(s.conns))]
			pushFrame(ctx, cl, co, tg.tenant, tg.name, fs[k])
			apply(tg.x, [][]stream.Update{fs[k]}, 1)
			if (k/len(s.conns))%mixedSampleEvery == mixedSampleEvery-1 {
				sampleL0(ctx, cl, co, tg.tenant, tg.name, tg.x)
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// A seed-chosen subset is compared byte for byte, before and after.
	pick := rng(e.seed, "serve_mixed.checked").Perm(sketches)[:min(mixedChecked, sketches)]
	checked := make([]target, len(pick))
	for i, p := range pick {
		checked[i] = all[p]
	}
	if o.sketchBytes, err = s.checkServed(ctx, o, spec, checked, "after ingest"); err != nil {
		return nil, err
	}
	if err := s.crashAndRecover(ctx, o, spec, checked, false); err != nil {
		return nil, err
	}
	return o, nil
}
