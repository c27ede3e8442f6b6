package integration

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/heavyhitters"
	"repro/internal/moments"
	"repro/internal/stream"
)

// buffered is a sketch whose Process buffers updates for its batch fold.
type buffered interface {
	stream.BatchSink
	AppendState(*codec.Encoder)
	RestoreState(*codec.Decoder)
}

func encodeState(s buffered) []byte {
	e := codec.NewEncoder(codec.KindInvalid)
	s.AppendState(e)
	return e.Bytes()
}

func decodeState(t *testing.T, s buffered, b []byte) {
	t.Helper()
	d, err := codec.NewDecoder(b)
	if err != nil {
		t.Fatal(err)
	}
	s.RestoreState(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// checkPendingInterleavings drives a subject through random interleavings of
// Process and every operation that must see or drop its pending updates —
// ProcessBatch, a query, Merge with pending updates on either side and with
// itself, AppendState and RestoreState — against a reference fed the same
// updates through ProcessBatch alone. Runs of Process are 1, 2, 255, 256 or
// 257 long, so the buffer is read at, just below and just past its fill
// whatever it held before. Exported state must match byte for byte, and
// queries must answer alike.
func checkPendingInterleavings[T buffered](t *testing.T, seed uint64, n int, mk func() T, merge func(a, b T) error, query func(T) any) {
	t.Helper()
	r := rand.New(rand.NewPCG(seed, 0x9e3779b9))
	updates := func() stream.Stream {
		runs := []int{1, 2, 255, 256, 257}
		st := make(stream.Stream, runs[r.IntN(len(runs))])
		for i := range st {
			st[i] = stream.Update{Index: r.IntN(n), Delta: r.Int64N(41) - 20}
		}
		return st
	}
	process := func(s T, st stream.Stream) {
		for _, u := range st {
			s.Process(u)
		}
	}
	same := func(step int, what string, a, b T) {
		t.Helper()
		if !bytes.Equal(encodeState(a), encodeState(b)) {
			t.Fatalf("step %d, %s: state differs from the batch-fed reference", step, what)
		}
	}
	s, ref := mk(), mk()
	for step := 0; step < 40; step++ {
		switch r.IntN(8) {
		case 0, 1:
			st := updates()
			process(s, st)
			ref.ProcessBatch(st)
		case 2:
			st := updates()
			s.ProcessBatch(st)
			ref.ProcessBatch(st)
		case 3: // a query over pending updates, on the subject and on a fresh replica
			st := updates()
			q, qRef := mk(), mk()
			process(q, st)
			qRef.ProcessBatch(st)
			process(s, st)
			ref.ProcessBatch(st)
			for _, c := range [][2]T{{q, qRef}, {s, ref}} {
				if got, want := fmt.Sprint(query(c[0])), fmt.Sprint(query(c[1])); got != want {
					t.Fatalf("step %d: query %s, reference %s", step, got, want)
				}
			}
		case 4: // pending updates on the other side, and on this one
			o, oRef := mk(), mk()
			st := updates()
			process(o, st)
			oRef.ProcessBatch(st)
			if err := merge(s, o); err != nil {
				t.Fatal(err)
			}
			if err := merge(ref, oRef); err != nil {
				t.Fatal(err)
			}
			same(step, "merged-in replica", o, oRef)
		case 5: // the subject as the other side
			x, xRef := mk(), mk()
			if err := merge(x, s); err != nil {
				t.Fatal(err)
			}
			if err := merge(xRef, ref); err != nil {
				t.Fatal(err)
			}
			same(step, "merge into a fresh replica", x, xRef)
		case 6:
			if err := merge(s, s); err != nil {
				t.Fatal(err)
			}
			if err := merge(ref, ref); err != nil {
				t.Fatal(err)
			}
		case 7: // RestoreState over pending updates discards them
			snapshot := encodeState(ref)
			process(s, updates())
			decodeState(t, s, snapshot)
		}
		if r.IntN(4) == 0 {
			same(step, "AppendState", s, ref)
		}
	}
	same(40, "final AppendState", s, ref)
}

func TestLpSamplerPendingInterleavings(t *testing.T) {
	const n = 1 << 10
	for i, p := range []float64{0.5, 1, 1.5} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			mk := func() *core.LpSampler {
				return core.NewLpSampler(core.LpConfig{P: p, N: n, Eps: 0.3, Delta: 0.3, Copies: 4}, rand.New(rand.NewPCG(71, 72)))
			}
			checkPendingInterleavings(t, uint64(73+i), n, mk, (*core.LpSampler).Merge,
				func(s *core.LpSampler) any { return []any{s.SampleAll(), s.Diagnostics()} })
		})
	}
}

// TestL0SamplerPendingInterleavings alternates its query between Sample and
// every level's RecoverLevel from one query step to the next, so that each
// read's own flush is what the comparison sees. A query only sees pending
// updates that reach a sparse level, so each mode runs four seeds.
func TestL0SamplerPendingInterleavings(t *testing.T) {
	const n = 1 << 10
	for i := range 8 {
		nested := i%2 == 1
		t.Run(fmt.Sprintf("nested=%v,seed=%d", nested, 82+i), func(t *testing.T) {
			mk := func() *core.L0Sampler {
				return core.NewL0Sampler(core.L0Config{N: n, Delta: 0.2, NestedLevels: nested}, rand.New(rand.NewPCG(80, 81)))
			}
			calls := 0 // a query step makes four calls: fresh replica, reference, subject, reference
			query := func(s *core.L0Sampler) any {
				calls++
				if (calls-1)/4%2 == 0 {
					sm, ok := s.Sample()
					return []any{sm, ok}
				}
				levels := make([]string, s.Levels())
				for k := range levels {
					rec, ok := s.RecoverLevel(k)
					levels[k] = fmt.Sprint(rec, ok)
				}
				return levels
			}
			checkPendingInterleavings(t, uint64(82+i), n, mk, (*core.L0Sampler).Merge, query)
		})
	}
}

func TestHeavyHittersPendingInterleavings(t *testing.T) {
	const n = 1 << 10
	for i, p := range []float64{1, 2} {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			mk := func() *heavyhitters.Sketch {
				return heavyhitters.New(heavyhitters.Config{P: p, Phi: 0.2, N: n}, rand.New(rand.NewPCG(74, 75)))
			}
			checkPendingInterleavings(t, uint64(76+i), n, mk, (*heavyhitters.Sketch).Merge,
				func(s *heavyhitters.Sketch) any { return s.HeavyHitters() })
		})
	}
}

func TestFpEstimatorPendingInterleavings(t *testing.T) {
	const n = 1 << 8
	mk := func() *moments.FpEstimator { return moments.NewFp(3, n, 2, rand.New(rand.NewPCG(77, 78))) }
	checkPendingInterleavings(t, 79, n, mk, (*moments.FpEstimator).Merge,
		func(e *moments.FpEstimator) any {
			v, ok := e.Estimate()
			return []any{v, ok}
		})
}
