package distinct

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/field"
	"repro/internal/stream"
)

func stateBytes(e *Estimator) []byte {
	enc := codec.NewEncoder(codec.KindInvalid)
	e.AppendState(enc)
	return enc.Bytes()
}

func TestZeroVector(t *testing.T) {
	e := New(256, 8, rand.New(rand.NewPCG(1, 1)))
	if got := e.Estimate(); got != 0 {
		t.Fatalf("zero vector estimate = %d, want 0", got)
	}
}

func TestCancellationToZero(t *testing.T) {
	e := New(256, 8, rand.New(rand.NewPCG(2, 2)))
	for i := 0; i < 256; i++ {
		e.Process(stream.Update{Index: i, Delta: 7})
	}
	for i := 0; i < 256; i++ {
		e.Process(stream.Update{Index: i, Delta: -7})
	}
	if got := e.Estimate(); got != 0 {
		t.Fatalf("cancelled vector estimate = %d, want 0", got)
	}
}

func TestConstantFactorAccuracy(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	const n = 4096
	for _, l0 := range []int{1, 4, 16, 100, 1000, 4096} {
		good := 0
		const trials = 20
		for trial := 0; trial < trials; trial++ {
			e := New(n, 12, r)
			st := stream.SparseVector(n, l0, 50, r)
			st.Feed(e)
			est := e.Estimate()
			// Constant-factor window: [L0/8, 32*L0] is what the level
			// argument guarantees with comfortable slack.
			if est >= int64(l0)/8 && est <= 32*int64(l0) {
				good++
			}
		}
		if good < trials-2 {
			t.Errorf("L0=%d: constant-factor estimate only %d/%d times", l0, good, trials)
		}
	}
}

func TestSingleCoordinate(t *testing.T) {
	r := rand.New(rand.NewPCG(4, 4))
	for trial := 0; trial < 10; trial++ {
		e := New(1024, 12, r)
		e.Process(stream.Update{Index: trial * 100, Delta: -3})
		est := e.Estimate()
		if est < 1 || est > 16 {
			t.Fatalf("singleton estimate = %d, want small constant", est)
		}
	}
}

func TestNegativeValuesCount(t *testing.T) {
	// L0 counts support regardless of sign.
	r := rand.New(rand.NewPCG(5, 5))
	e := New(512, 12, r)
	for i := 0; i < 200; i++ {
		e.Process(stream.Update{Index: i, Delta: -int64(i + 1)})
	}
	est := e.Estimate()
	if est < 25 || est > 6400 {
		t.Fatalf("estimate %d far from 200", est)
	}
}

func TestSpaceBitsGrowth(t *testing.T) {
	r := rand.New(rand.NewPCG(6, 6))
	small := New(1<<8, 8, r)
	big := New(1<<16, 8, r)
	if codec.PayloadBits(big) <= codec.PayloadBits(small) {
		t.Error("space must grow with log n")
	}
	if codec.PayloadBits(big) > 4*codec.PayloadBits(small) {
		t.Error("space must stay logarithmic in n")
	}
}

func TestPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 8, rand.New(rand.NewPCG(7, 7)))
}

func BenchmarkProcess(b *testing.B) {
	e := New(1<<16, 12, rand.New(rand.NewPCG(1, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Process(stream.Update{Index: i % (1 << 16), Delta: 1})
	}
}

// TestMergeAndBatchMatchSerial holds the estimator fed in batches of 64, fed
// one update at a time, and merged from two halves to the definition of its
// cells, F_{k,j} = Σ_{i: h_j(i) < 2^-k} x_i·ρ_j^i, computed from the net
// vector with the scalar hash and field.Pow and compared byte for byte
// through AppendState.
func TestMergeAndBatchMatchSerial(t *testing.T) {
	const n = 512
	mk := func() *Estimator { return New(n, 12, rand.New(rand.NewPCG(51, 52))) }
	st := stream.SparseVector(n, 100, 30, rand.New(rand.NewPCG(53, 54)))
	x := st.Apply(n)
	def := mk()
	for k := range def.fp {
		for j := range def.fp[k] {
			var f field.Elem
			for i := 0; i < n; i++ {
				if def.member.Float64(j, uint64(i)) < math.Ldexp(1, -k) {
					f = field.Add(f, field.Mul(field.FromInt64(x.Get(i)), field.Pow(def.rho[j], uint64(i))))
				}
			}
			def.fp[k][j] = f
		}
	}
	want := stateBytes(def)

	whole, single, a, b := mk(), mk(), mk(), mk()
	st.FeedBatch(64, whole)
	st.Feed(single)
	half := len(st) / 2
	st[:half].Feed(a)
	st[half:].Feed(b)
	if err := a.Merge(b); err != nil {
		t.Fatalf("same-seed merge failed: %v", err)
	}
	for name, e := range map[string]*Estimator{"batches of 64": whole, "one at a time": single, "merged halves": a} {
		if !bytes.Equal(stateBytes(e), want) {
			t.Errorf("%s: state differs from the definition", name)
		}
	}
	if a.Estimate() != whole.Estimate() {
		t.Fatalf("merged estimate %d != serial %d", a.Estimate(), whole.Estimate())
	}
	if err := a.Merge(New(n, 12, rand.New(rand.NewPCG(55, 56)))); err == nil {
		t.Fatal("expected error merging differently seeded estimators")
	}
}
