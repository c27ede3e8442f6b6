package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/hash"
	"repro/internal/stream"
)

// stateBytes is a sketch's framed linear state, the digest the tests compare.
func stateBytes(s interface{ AppendState(*codec.Encoder) }) []byte {
	e := codec.NewEncoder(codec.KindInvalid)
	s.AppendState(e)
	return e.Bytes()
}

// restoreState replaces a sketch's linear state with stateBytes output.
func restoreState(s interface{ RestoreState(*codec.Decoder) }, b []byte) error {
	d, err := codec.NewDecoder(b)
	if err != nil {
		return err
	}
	s.RestoreState(d)
	return d.Finish()
}

// TestLpUpdatePathsAgree pins the three ways updates reach an Lp sampler —
// one ProcessBatch of 3·batchBlock+17 updates (walked in blocks inside), the
// same updates handed over block by block, and one Process at a time (buffered
// and folded 256 at a time) — to the same serialized state, byte for byte. tMin is
// raised so that the guard filters part of every block and trips in some
// repetitions but not all.
func TestLpUpdatePathsAgree(t *testing.T) {
	const n = 1 << 12
	st := stream.ZipfSigned(n, 1.1, 3*batchBlock+17, rand.New(rand.NewPCG(41, 42)))
	for _, p := range []float64{0.5, 1, 1.5} {
		mk := func() *LpSampler {
			s := NewLpSampler(LpConfig{P: p, N: n, Eps: 0.3, Delta: 0.3, Copies: 6},
				rand.New(rand.NewPCG(43, 44)))
			s.tMin = 1e-4
			return s
		}
		whole, blocks, scalar := mk(), mk(), mk()
		whole.ProcessBatch(st)
		st.FeedBatch(batchBlock, blocks)
		for _, u := range st {
			scalar.Process(u)
		}
		guarded := 0
		for _, c := range whole.copies {
			if c.guarded {
				guarded++
			}
		}
		if guarded == 0 || guarded == len(whole.copies) {
			t.Fatalf("p=%v: %d of %d repetitions guarded; the test wants some but not all", p, guarded, len(whole.copies))
		}
		want := stateBytes(scalar)
		if !bytes.Equal(stateBytes(whole), want) {
			t.Errorf("p=%v: one large ProcessBatch differs from per-update Process", p)
		}
		if !bytes.Equal(stateBytes(blocks), want) {
			t.Errorf("p=%v: block-sized ProcessBatch calls differ from per-update Process", p)
		}
	}
}

// TestReciprocalScaleMatchesPow: at p = 1 the repetitions scale by 1/t_i in
// place of math.Pow(t_i, -1); the two must agree bit for bit on every t_i the
// guard lets through — 10^6 scaling-hash draws, and tMin and 1 (the ends of
// the guarded range) with their neighbouring floats, for n from 1 to 2^40.
func TestReciprocalScaleMatchesPow(t *testing.T) {
	s := NewLpSampler(LpConfig{P: 1, N: 1 << 10, Eps: 0.3, Delta: 0.3, Copies: 1}, rand.New(rand.NewPCG(49, 50)))
	ts := []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2)}
	for _, n := range []float64{1, 2, 1 << 10, 1 << 14, 1 << 16, 1 << 20, 1 << 30, 1 << 40} {
		tMin := math.Pow(n, -2) / 16
		ts = append(ts, tMin, math.Nextafter(tMin, 0), math.Nextafter(tMin, 1))
	}
	h := hash.NewFlatFamily(1, 2, rand.New(rand.NewPCG(51, 52)))
	for i := uint64(0); i < 1_000_000; i++ {
		ts = append(ts, h.Float64(0, i))
	}
	for _, ti := range ts {
		if got, want := s.tScale(ti), math.Pow(ti, -1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t = %v: 1/t = %v (%#x), math.Pow(t, -1) = %v (%#x)",
				ti, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// scratchCaps walks v and reports the capacity of every slice held in a
// struct field whose name starts with "scratch", by path.
func scratchCaps(v reflect.Value, path string, out map[string]int) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			scratchCaps(v.Elem(), path, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			f := v.Field(i)
			if f.Kind() == reflect.Slice && strings.HasPrefix(name, "scratch") {
				out[path+"."+name] = f.Cap()
				continue
			}
			scratchCaps(f, path+"."+name, out)
		}
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				scratchCaps(v.Index(i), path, out)
			}
		}
	}
}

// TestLpBatchScratchBounded: whatever the size of the batch handed in, no
// batch scratch under the sampler — its own, the count-sketches', the AMS and
// p-stable sketches' — grows past batchBlock entries.
func TestLpBatchScratchBounded(t *testing.T) {
	const n = 1 << 12
	for _, p := range []float64{0.5, 1, 1.5} {
		s := NewLpSampler(LpConfig{P: p, N: n, Eps: 0.3, Delta: 0.3, Copies: 3},
			rand.New(rand.NewPCG(45, 46)))
		s.ProcessBatch(stream.ZipfSigned(n, 1.1, 10*batchBlock, rand.New(rand.NewPCG(47, 48))))
		caps := map[string]int{}
		scratchCaps(reflect.ValueOf(s), "LpSampler", caps)
		if len(caps) < 10 {
			t.Fatalf("found only %d scratch slices under the sampler: %v", len(caps), caps)
		}
		grown := 0
		for path, c := range caps {
			if c > batchBlock {
				t.Errorf("p=%v: %s has capacity %d after a %d-update batch, want <= %d", p, path, c, 10*batchBlock, batchBlock)
			}
			if c == batchBlock {
				grown++
			}
		}
		if grown == 0 {
			t.Errorf("p=%v: no scratch slice reached batchBlock: %v", p, caps)
		}
	}
}

func BenchmarkLpSamplerProcessBatch(b *testing.B) {
	const n = 1 << 14
	s := NewLpSampler(LpConfig{P: 1, N: n, Eps: 0.25, Delta: 0.2}, rand.New(rand.NewPCG(1, 1)))
	st := stream.ZipfSigned(n, 1.1, batchBlock, rand.New(rand.NewPCG(2, 2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ProcessBatch(st)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(st)), "ns/update")
}
