package sketchd

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	streamsample "repro"
	"repro/internal/codec"
	"repro/internal/stream"
)

func newTestServer(t *testing.T, cfg RegistryConfig) (*httptest.Server, *Client) {
	t.Helper()
	reg, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(reg))
	t.Cleanup(func() {
		ts.Close()
		reg.Drain() //nolint:errcheck // teardown
	})
	return ts, NewClient(ts.URL)
}

func testStream(n, length int, seed uint64) stream.Stream {
	r := rand.New(rand.NewPCG(seed, seed^0xD1B54A32D192ED03))
	return stream.RandomTurnstile(n, length, 100, r)
}

func TestServerCRUD(t *testing.T) {
	_, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	spec := Spec{Kind: "l0", N: 256, Seed: 4}

	if err := c.Create(ctx, "acme", "clicks", spec); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.Create(ctx, "acme", "clicks", spec); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v, want ErrExists", err)
	}
	info, err := c.Info(ctx, "acme", "clicks")
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Spec != spec {
		t.Fatalf("info spec = %+v, want %+v", info.Spec, spec)
	}
	if err := c.Delete(ctx, "acme", "clicks"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Info(ctx, "acme", "clicks"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("info after delete err = %v, want ErrNotFound", err)
	}
	if err := c.Delete(ctx, "acme", "clicks"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestServerCreateValidation(t *testing.T) {
	_, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	cases := []struct {
		tenant, name string
		spec         Spec
	}{
		{"ok", "ok", Spec{Kind: "nope", N: 100}},
		{"ok", "ok", Spec{Kind: "l0", N: 0}},
		{"ok", "ok", Spec{Kind: "lp", N: 100, P: 2.5}},
		{"../evil", "ok", Spec{Kind: "l0", N: 100}},
		{"ok", "a b", Spec{Kind: "l0", N: 100}},
	}
	for _, spec := range hostileSpecs {
		cases = append(cases, struct {
			tenant, name string
			spec         Spec
		}{"ok", "ok", spec})
	}
	for _, tc := range cases {
		err := c.Create(ctx, tc.tenant, tc.name, tc.spec)
		if err == nil {
			t.Errorf("create %q/%q %+v accepted, want rejection", tc.tenant, tc.name, tc.spec)
			continue
		}
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Errorf("create %q/%q err = %v, want bad_request envelope", tc.tenant, tc.name, err)
		}
	}
}

// hostileSpecs are creates whose sketch the word budget refuses: every
// config of the root package's TestLoadRejectsAbsurdConfig that a Spec can
// express (the copies and sparsity overrides have no Spec field), then two
// plain requests — 20 rows × 6·12·10⁶ count-sketch cells (≈ 11.5 GB) for
// heavy hitters at φ = 10⁻⁶, and ≈ 3.2·10⁶ repetitions for an L1 sampler at
// ε = 10⁻⁶. Create must refuse each from the kind table's row, without
// building anything.
var hostileSpecs = []Spec{
	{Kind: "l0", N: 1 << 50, Delta: 0.2, Seed: 1},
	{Kind: "hh", N: 64, P: 2, Phi: 1e-9, Seed: 1},
	{Kind: "lp", N: 4, P: 1 + 1e-12, Eps: 0.5, Delta: 0.5, Seed: 1},
	{Kind: "hh", N: 1<<31 - 1, P: 2, Phi: 0.0017, Seed: 1},
	{Kind: "hh", N: 65536, Phi: 1e-6},
	{Kind: "lp", N: 65536, Eps: 1e-6},
}

// TestServerIngestAgreement is the heart of the tier: raw frames, sketch
// uploads, and a mix of both must all merge to exactly the serial sketch.
func TestServerIngestAgreement(t *testing.T) {
	const n, seed, length = 1024, 11, 30000
	st := testStream(n, length, seed)
	serial := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
	serial.ProcessBatch(st)
	want, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []string{"raw", "sketch", "mixed"} {
		t.Run(mode, func(t *testing.T) {
			// Fan-in 2 over the 8 merge-tree leaves: the 10 uploads of the
			// "sketch" mode fill two leaves, which fold into the root, and
			// leave six partial leaves for the flush.
			_, c := newTestServer(t, RegistryConfig{FanIn: 2})
			ctx := context.Background()
			if err := c.Create(ctx, "t", "s", Spec{Kind: "l0", N: n, Seed: seed}); err != nil {
				t.Fatal(err)
			}
			const parts = 10
			for i := 0; i < parts; i++ {
				var slice stream.Stream
				for j := i; j < len(st); j += parts {
					slice = append(slice, st[j])
				}
				useRaw := mode == "raw" || (mode == "mixed" && i%2 == 0)
				if useRaw {
					res, err := c.PushUpdates(ctx, "t", "s", slice)
					if err != nil {
						t.Fatalf("part %d raw: %v", i, err)
					}
					if res.Updates != int64(len(slice)) {
						t.Fatalf("part %d: server accepted %d updates, sent %d", i, res.Updates, len(slice))
					}
				} else {
					local := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
					local.ProcessBatch(slice)
					blob, err := local.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if err := c.PushSketch(ctx, "t", "s", blob, false); err != nil {
						t.Fatalf("part %d sketch: %v", i, err)
					}
				}
			}
			got, err := c.Bytes(ctx, "t", "s")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("mode %s: merged sketch differs from serial ingestion", mode)
			}
			if mode == "sketch" {
				sz, err := c.Statsz(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if len(sz.Sketches) != 1 || sz.Sketches[0].MergeTree.LeafFolds == 0 {
					t.Fatalf("sketch mode: merge tree stats %+v, want a leaf folded into the root", sz.Sketches)
				}
			}
			// Sample determinism: same state, same seed, same draw.
			res, err := c.Sample(ctx, "t", "s")
			if err != nil {
				t.Fatal(err)
			}
			wi, wv, wok := serial.Sample()
			if res.Ok != wok || res.Index != wi || res.Value != wv {
				t.Fatalf("mode %s: server sample %+v, serial (%d,%d,%v)", mode, res, wi, wv, wok)
			}
		})
	}
}

func TestServerMismatchTypedOverWire(t *testing.T) {
	_, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	const n = 128
	if err := c.Create(ctx, "t", "s", Spec{Kind: "l0", N: n, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	foreign := streamsample.NewL0Sampler(n, streamsample.WithSeed(2))
	foreign.Update(3, 1)
	blob, _ := foreign.MarshalBinary()
	err := c.PushSketch(ctx, "t", "s", blob, false)
	if !errors.Is(err, codec.ErrSeedMismatch) {
		t.Fatalf("foreign-seed upload err = %v, want ErrSeedMismatch across the wire", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusConflict {
		t.Fatalf("foreign-seed upload = %v, want 409 envelope", err)
	}

	// Half the dimension: fewer levels, so the body fits under the spec's
	// length cap and reaches Merge (a larger sketch is refused by the cap;
	// see TestServerUploadBodyCap).
	misconfigured := streamsample.NewL0Sampler(n/2, streamsample.WithSeed(1))
	blob2, _ := misconfigured.MarshalBinary()
	if err := c.PushSketch(ctx, "t", "s", blob2, false); !errors.Is(err, codec.ErrConfigMismatch) {
		t.Fatalf("misconfigured upload err = %v, want ErrConfigMismatch across the wire", err)
	}

	if err := c.PushSketch(ctx, "t", "s", []byte("not a sketch"), false); err == nil {
		t.Fatal("garbage upload accepted")
	} else if se = nil; !errors.As(err, &se) || se.Code != CodeBadSketchBytes {
		t.Fatalf("garbage upload err = %v, want bad_sketch_bytes envelope", err)
	}
}

// servedSpecs is one spec per served kind and shape the upload cap relies on:
// the L0 sampler, the L1 sampler (Cauchy stable sketch), the L0.5 sampler
// (Chambers–Mallows–Stuck stable sketch) and heavy hitters.
var servedSpecs = []Spec{
	{Kind: "l0", N: 1024, Seed: 3},
	{Kind: "lp", N: 1024, P: 1, Seed: 3},
	{Kind: "lp", N: 1024, P: 0.5, Seed: 3},
	{Kind: "hh", N: 1024, Seed: 3},
	{Kind: "hh", N: 1024, P: 2, Phi: 0.2, Seed: 3},
}

// TestFedSketchKeepsSpecLength pins what the upload cap assumes: a sketch of
// a served kind marshals to the same number of bytes fed as at zero state.
func TestFedSketchKeepsSpecLength(t *testing.T) {
	for _, spec := range servedSpecs {
		sk, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		zero, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sk.ProcessBatch(testStream(spec.N, 5000, 8))
		fed, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(fed) != len(zero) {
			t.Errorf("%+v: fed sketch marshals to %d bytes, zero state to %d", spec, len(fed), len(zero))
		}
	}
}

// TestServerUploadBodyCap: an upload is read to at most the spec's length
// plus one byte. A same-spec sketch is accepted; one byte more — or a sketch
// of a larger spec — gets the typed bad_request refusal, and nothing lands.
func TestServerUploadBodyCap(t *testing.T) {
	_, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	spec := Spec{Kind: "l0", N: 256, Seed: 5}
	if err := c.Create(ctx, "t", "s", spec); err != nil {
		t.Fatal(err)
	}
	local := streamsample.NewL0Sampler(spec.N, streamsample.WithSeed(spec.Seed))
	local.ProcessBatch(testStream(spec.N, 2000, 6))
	blob, err := local.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	larger, err := streamsample.NewL0Sampler(4*spec.N, streamsample.WithSeed(spec.Seed)).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"one byte over": append(append([]byte(nil), blob...), 0),
		"larger spec":   larger,
	} {
		err := c.PushSketch(ctx, "t", "s", body, false)
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeBadRequest || se.HTTPStatus() != http.StatusBadRequest {
			t.Errorf("%s (%d bytes, cap %d): err = %v, want the 400 bad_request envelope", name, len(body), len(blob), err)
		}
	}
	if err := c.PushSketch(ctx, "t", "s", blob, false); err != nil {
		t.Fatalf("same-spec upload: %v", err)
	}
	got, err := c.Bytes(ctx, "t", "s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("refused uploads changed the merged sketch")
	}
}

func TestServerNegotiationOverWire(t *testing.T) {
	ts, _ := newTestServer(t, RegistryConfig{})
	ctx := context.Background()

	// Green: a v1 client resolves 1 and the response echoes it.
	green := NewClient(ts.URL)
	v, err := green.Negotiate(ctx)
	if err != nil || v != codec.Version {
		t.Fatalf("green negotiate = (%d, %v), want (%d, nil)", v, err, codec.Version)
	}

	// Red: a future-only client is refused with the typed 426 envelope, on
	// the probe AND on every negotiated endpoint.
	red := NewClient(ts.URL, WithWireVersions(99))
	if _, err := red.Negotiate(ctx); !errors.Is(err, ErrVersionNegotiation) {
		t.Fatalf("red negotiate err = %v, want ErrVersionNegotiation", err)
	}
	if err := green.Create(ctx, "t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	err = red.PushSketch(ctx, "t", "s", []byte("x"), false)
	if !errors.Is(err, ErrVersionNegotiation) {
		t.Fatalf("red ingest err = %v, want ErrVersionNegotiation", err)
	}
	var se *Error
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusUpgradeRequired {
		t.Fatalf("red ingest = %v, want 426 envelope", err)
	}
	// The negotiation failure must also be errors.Is-able as the codec
	// sentinel, keeping one taxonomy on both sides of the wire.
	if !errors.Is(err, codec.ErrBadVersion) {
		t.Fatalf("red ingest err %v does not wrap codec.ErrBadVersion", err)
	}
	// The query side of the data plane refuses the same offer: a rejected
	// client must not half-work by sampling what it cannot push.
	if _, err := red.Sample(ctx, "t", "s"); !errors.Is(err, ErrVersionNegotiation) {
		t.Fatalf("red sample err = %v, want ErrVersionNegotiation", err)
	}
	// And a bare HTTP client (no SDK) offering only a future version gets
	// the raw 426 + envelope.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/tenants/t/sketches/s/sample", nil)
	req.Header.Set(HeaderWireVersions, "99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("bare red GET sample status = %d, want 426", resp.StatusCode)
	}

	// A curl-shaped client offering no version header at all gets the
	// negotiated default.
	resp, err = http.Get(ts.URL + "/v1/tenants/t/sketches/s/sample")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("bare GET sample without a version header = %d, want 200\n%s", resp.StatusCode, body)
	}
}

func TestServerRejectsHostileFrames(t *testing.T) {
	ts, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	const n = 64
	if err := c.Create(ctx, "t", "s", Spec{Kind: "l0", N: n, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	post := func(body []byte) error {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/tenants/t/sketches/s/updates", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		return decodeError(resp.StatusCode, resp.Body)
	}

	// An out-of-dimension index must be rejected before it reaches the
	// engine (and before it is journaled).
	hostile := AppendFrame(nil, []stream.Update{{Index: n + 5, Delta: 1}})
	if err := post(hostile); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("hostile index err = %v, want ErrBadFrame", err)
	}
	// A truncated stream dies typed.
	good := AppendFrame(nil, []stream.Update{{Index: 1, Delta: 1}})
	if err := post(good[:len(good)-2]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// The sketch must still be usable and exactly empty-plus-nothing: the
	// hostile frames contributed zero updates.
	res, err := c.PushUpdates(ctx, "t", "s", stream.Stream{{Index: 1, Delta: 1}})
	if err != nil || res.Updates != 1 {
		t.Fatalf("ingest after hostile frames = (%+v, %v)", res, err)
	}
}

func TestServerStatsz(t *testing.T) {
	_, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	if err := c.Create(ctx, "t", "s", Spec{Kind: "l0", N: 64, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushUpdates(ctx, "t", "s", stream.Stream{{Index: 1, Delta: 1}, {Index: 2, Delta: -1}}); err != nil {
		t.Fatal(err)
	}
	local := streamsample.NewL0Sampler(64, streamsample.WithSeed(1))
	local.Update(5, 3)
	blob, _ := local.MarshalBinary()
	if err := c.PushSketch(ctx, "t", "s", blob, false); err != nil {
		t.Fatal(err)
	}
	st, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registry.Sketches != 1 || st.Registry.RawUpdates != 2 || st.Registry.SketchUploads != 1 {
		t.Fatalf("registry stats = %+v", st.Registry)
	}
	if len(st.Sketches) != 1 {
		t.Fatalf("per-sketch stats count = %d", len(st.Sketches))
	}
	s := st.Sketches[0]
	if s.Engine.Routed != 2 || s.Engine.Shards != 1 || s.MergeTree.Uploads != 1 {
		t.Fatalf("sketch stats = %+v", s)
	}
}

// TestServerDurableRecovery: drain, reopen from the same directory, and the
// recovered registry must answer byte-identically — for raw updates (engine
// store) and sketch uploads (fold store) both.
func TestServerDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	const n, seed = 512, 6
	st := testStream(n, 5000, seed)
	ctx := context.Background()
	cfg := RegistryConfig{Dir: dir, UploadCheckpointEvery: 1 << 30}

	reg1, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewServer(reg1))
	c := NewClient(ts1.URL)
	if err := c.Create(ctx, "t", "s", Spec{Kind: "l0", N: n, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushUpdates(ctx, "t", "s", st[:4000]); err != nil {
		t.Fatal(err)
	}
	local := streamsample.NewL0Sampler(n, streamsample.WithSeed(seed))
	local.ProcessBatch(st[4000:])
	blob, _ := local.MarshalBinary()
	if err := c.PushSketch(ctx, "t", "s", blob, false); err != nil {
		t.Fatal(err)
	}
	want, err := c.Bytes(ctx, "t", "s")
	if err != nil {
		t.Fatal(err)
	}

	// Drain seals everything — the SIGTERM path — then a brand-new registry
	// recovers from disk alone.
	ts1.Close()
	if err := reg1.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	reg2, err := OpenRegistry(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	ts2 := httptest.NewServer(NewServer(reg2))
	defer ts2.Close()
	c2 := NewClient(ts2.URL)
	got, err := c2.Bytes(ctx, "t", "s")
	if err != nil {
		t.Fatalf("recovered bytes: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered registry differs from pre-restart state")
	}
	st2, err := c2.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Registry.Recovered != 1 {
		t.Fatalf("recovered counter = %d, want 1", st2.Registry.Recovered)
	}
	reg2.Drain() //nolint:errcheck // teardown
}

// TestServerConcurrentSamples: the Lp recovery stage and the heavy-hitters
// scan run over scratch the sketch owns, so a query is single-goroutine; the
// server stays correct under concurrent /sample requests because each one
// queries its private Merged copy. Run under -race, concurrent queries on one
// sketch must be clean and must all return the same answer.
func TestServerConcurrentSamples(t *testing.T) {
	const n = 2048
	_, c := newTestServer(t, RegistryConfig{})
	ctx := context.Background()
	for name, spec := range map[string]Spec{
		"lp": {Kind: "lp", N: n, P: 1, Eps: 0.3, Delta: 0.3, Seed: 5},
		"hh": {Kind: "hh", N: n, P: 1, Phi: 0.2, Seed: 5},
	} {
		if err := c.Create(ctx, "t", name, spec); err != nil {
			t.Fatal(err)
		}
		st := append(testStream(n, 4000, 9), stream.Update{Index: 77, Delta: 1 << 20})
		if _, err := c.PushUpdates(ctx, "t", name, st); err != nil {
			t.Fatal(err)
		}
		const clients = 4
		results := make([]SampleResult, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[g], errs[g] = c.Sample(ctx, "t", name)
			}()
		}
		wg.Wait()
		for g := range results {
			if errs[g] != nil {
				t.Fatalf("%s client %d: %v", name, g, errs[g])
			}
			if !reflect.DeepEqual(results[g], results[0]) {
				t.Fatalf("%s client %d answered %+v, client 0 %+v", name, g, results[g], results[0])
			}
		}
		if !results[0].Ok {
			t.Fatalf("%s: no answer on a stream with one dominant coordinate: %+v", name, results[0])
		}
	}
}
