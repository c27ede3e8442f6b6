package duplicates

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/stream"
)

// isDuplicate checks an answer against the item stream.
func isDuplicate(items stream.Items, letter int) bool {
	c := 0
	for _, it := range items {
		if it == letter {
			c++
		}
	}
	return c >= 2
}

func TestFinderRandomStreams(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 256
	fails, wrong := 0, 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		items := stream.DuplicateItems(n, -1, r)
		f := NewFinder(n, 0.1, r)
		for _, it := range items {
			f.ProcessItem(it)
		}
		res := f.Find()
		switch res.Kind {
		case Fail:
			fails++
		case Duplicate:
			if !isDuplicate(items, res.Index) {
				wrong++
			}
		default:
			t.Fatalf("unexpected result kind %v", res.Kind)
		}
	}
	if wrong > 0 {
		t.Errorf("%d wrong duplicates (must be low probability)", wrong)
	}
	if fails > trials/4 {
		t.Errorf("%d/%d failures, want <= δ + slack", fails, trials)
	}
}

func TestFinderSingleDuplicateAdversarial(t *testing.T) {
	// Exactly one letter repeats: the hardest instance (duplicate mass is
	// minimal, every other letter has x_i = 0).
	r := rand.New(rand.NewPCG(2, 2))
	const n = 128
	fails, wrong := 0, 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		target := r.IntN(n)
		items := stream.DuplicateItems(n, target, r)
		f := NewFinder(n, 0.1, r)
		for _, it := range items {
			f.ProcessItem(it)
		}
		res := f.Find()
		switch res.Kind {
		case Fail:
			fails++
		case Duplicate:
			if res.Index != target {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d wrong answers on single-duplicate streams", wrong)
	}
	if fails > trials/3 {
		t.Errorf("%d/%d failures on adversarial streams", fails, trials)
	}
}

func TestShortFinderNoDuplicateExact(t *testing.T) {
	// Duplicate-free streams of length n-s: NO-DUPLICATE with probability 1.
	r := rand.New(rand.NewPCG(3, 3))
	const n = 200
	for _, s := range []int{0, 1, 5, 20} {
		for trial := 0; trial < 5; trial++ {
			items := stream.ShortItems(n, s, false, 0, r)
			sf := NewShortFinder(n, s, 0.1, r)
			for _, it := range items {
				sf.ProcessItem(it)
			}
			res := sf.Find()
			if res.Kind != NoDuplicate {
				t.Fatalf("s=%d: result %v on duplicate-free stream, want NoDuplicate", s, res.Kind)
			}
		}
	}
}

func TestShortFinderSparseCaseExact(t *testing.T) {
	// Few duplicates => x is 5s-sparse => sparse recovery answers exactly.
	r := rand.New(rand.NewPCG(4, 4))
	const n = 200
	const s = 10
	for trial := 0; trial < 10; trial++ {
		items := stream.ShortItems(n, s, true, 2, r)
		sf := NewShortFinder(n, s, 0.1, r)
		for _, it := range items {
			sf.ProcessItem(it)
		}
		res := sf.Find()
		if res.Kind != Duplicate {
			t.Fatalf("trial %d: kind %v, want Duplicate (sparse path never fails)", trial, res.Kind)
		}
		if !isDuplicate(items, res.Index) {
			t.Fatalf("trial %d: %d is not a duplicate", trial, res.Index)
		}
		if res.Value != 1 {
			t.Fatalf("trial %d: recovered excess %v, want exactly 1", trial, res.Value)
		}
	}
}

func TestShortFinderDensePath(t *testing.T) {
	// Many duplicates: x is not 5s-sparse, the sampler path must engage.
	r := rand.New(rand.NewPCG(5, 5))
	const n = 256
	const s = 2
	fails, wrong := 0, 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		// length n-2 with ~120 duplicated letters: ~120 positives, ~120+2
		// negatives — far beyond 5s = 10 sparse.
		items := stream.ShortItems(n, s, true, 120, r)
		sf := NewShortFinder(n, s, 0.1, r)
		for _, it := range items {
			sf.ProcessItem(it)
		}
		res := sf.Find()
		switch res.Kind {
		case NoDuplicate:
			t.Fatal("NoDuplicate on a stream full of duplicates")
		case Fail:
			fails++
		case Duplicate:
			if !isDuplicate(items, res.Index) {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d wrong answers", wrong)
	}
	if fails > trials/3 {
		t.Errorf("%d/%d failures", fails, trials)
	}
}

func TestPositiveFinderGeneralStreams(t *testing.T) {
	// The remark after Theorem 4: any update stream with sum(x) < 0 has a
	// positive coordinate... only when one exists by construction; here we
	// plant positives among negatives.
	r := rand.New(rand.NewPCG(6, 6))
	const n = 128
	found, wrong := 0, 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		pf := NewPositiveFinder(n, 0.1, r)
		positives := map[int]bool{}
		for i := 0; i < n; i++ {
			if i%4 == 0 {
				pf.Process(stream.Update{Index: i, Delta: 3})
				positives[i] = true
			} else {
				pf.Process(stream.Update{Index: i, Delta: -2})
			}
		}
		res := pf.Find()
		if res.Kind == Duplicate {
			found++
			if !positives[res.Index] {
				wrong++
			}
		}
	}
	if wrong > 0 {
		t.Errorf("%d non-positive coordinates returned", wrong)
	}
	if found < trials*2/3 {
		t.Errorf("positive coordinate found only %d/%d times", found, trials)
	}
}

func TestLongFinderBothModes(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	const n = 256
	for _, force := range []int{1, 2} {
		caught, fails := 0, 0
		const trials = 15
		for trial := 0; trial < trials; trial++ {
			const s = 64
			items := stream.LongItems(n, s, r)
			lf := NewLongFinder(n, s, 0.1, force, r)
			for _, it := range items {
				lf.ProcessItem(it)
			}
			res := lf.Find()
			switch res.Kind {
			case Duplicate:
				if !isDuplicate(items, res.Index) {
					t.Fatalf("force=%d: wrong duplicate", force)
				}
				caught++
			case Fail:
				fails++
			}
		}
		if caught < trials/2 {
			t.Errorf("force=%d: caught only %d/%d", force, caught, trials)
		}
	}
}

func TestLongFinderAutoSelection(t *testing.T) {
	r := rand.New(rand.NewPCG(8, 8))
	// n/s tiny => position sampling; n/s huge => sampler.
	lf := NewLongFinder(1024, 512, 0.1, 0, r)
	if lf.UsesSampler() {
		t.Error("n/s=2 < log n: should use position sampling")
	}
	lf = NewLongFinder(1024, 2, 0.1, 0, r)
	if !lf.UsesSampler() {
		t.Error("n/s=512 >= log n: should use the L1 sampler")
	}
}

func BenchmarkFinderProcess(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	const n = 1 << 12
	f := NewFinder(n, 0.2, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ProcessItem(i % n)
	}
}

func TestFinderMergeCompensatesPrefix(t *testing.T) {
	// Each replica's constructor feeds the (i, -1) pigeonhole prefix; Merge
	// must re-add it once so the combined finder behaves like one finder
	// that saw the whole stream. Verified against the serial finder's
	// outcome on split streams.
	const n = 128
	agree, ok := 0, 0
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewPCG(uint64(80+trial), 81))
		items := stream.DuplicateItems(n, r.IntN(n), r)
		seed := uint64(90 + trial)
		mk := func() *Finder { return NewFinder(n, 0.2, rand.New(rand.NewPCG(seed, seed+1))) }
		serial, a, b := mk(), mk(), mk()
		for _, it := range items {
			serial.ProcessItem(it)
		}
		half := len(items) / 2
		for _, it := range items[:half] {
			a.ProcessItem(it)
		}
		for _, it := range items[half:] {
			b.ProcessItem(it)
		}
		if err := a.Merge(b); err != nil {
			t.Fatalf("same-seed merge failed: %v", err)
		}
		sr, mr := serial.Find(), a.Find()
		if sr == mr {
			agree++
		}
		if mr.Kind == Duplicate {
			ok++
			if !isDuplicate(items, mr.Index) {
				t.Fatalf("trial %d: merged finder returned non-duplicate %d", trial, mr.Index)
			}
		}
	}
	// The merged state equals the serial state up to float reordering, so
	// outcomes should agree essentially always; successes must be frequent.
	if agree < trials-1 {
		t.Errorf("merged and serial finders agreed only %d/%d times", agree, trials)
	}
	if ok < trials/2 {
		t.Errorf("merged finder succeeded only %d/%d times", ok, trials)
	}
}

func TestFinderMergeRejectsMismatch(t *testing.T) {
	a := NewFinder(64, 0.2, rand.New(rand.NewPCG(95, 96)))
	if err := a.Merge(NewFinder(64, 0.2, rand.New(rand.NewPCG(97, 98)))); err == nil {
		t.Fatal("expected error merging differently seeded finders")
	}
	if err := a.Merge(NewFinder(32, 0.2, rand.New(rand.NewPCG(95, 96)))); err == nil {
		t.Fatal("expected error merging finders of different alphabet sizes")
	}
}

// TestProcessItemsMatchesProcessItem: batched item ingestion must leave every
// finder in the same state as the one-letter-at-a-time loop (same-seed
// replicas, identical Find outcomes on a deterministic final query). Single
// letters wait in the sampler's buffer, so each finder's first read — a Find
// or a state export — must fold them, at stream lengths below, at and past
// the buffer's fill.
func TestProcessItemsMatchesProcessItem(t *testing.T) {
	const n = 256
	items := stream.DuplicateItems(n, 17, rand.New(rand.NewPCG(71, 72)))

	for _, length := range []int{255, 256, len(items)} {
		mk := func() *Finder { return NewFinder(n, 0.1, rand.New(rand.NewPCG(73, 74))) }
		fa, fs, fb := mk(), mk(), mk()
		for _, it := range items[:length] {
			fa.ProcessItem(it)
			fs.ProcessItem(it)
		}
		fb.ProcessItems(items[:length])
		if ra, rb := fa.Find(), fb.Find(); ra != rb {
			t.Fatalf("Finder, %d letters: scalar %+v != batched %+v", length, ra, rb)
		}
		want := stateBytes(fb.AppendState)
		if !bytes.Equal(stateBytes(fs.AppendState), want) || !bytes.Equal(stateBytes(fa.AppendState), want) {
			t.Fatalf("Finder, %d letters: scalar state differs from batched", length)
		}
	}

	// ShortFinder: the recoverer state must match bit-for-bit (Find breaks
	// ties among multiple duplicates in map order, so compare state, not the
	// specific letter) and both paths must report a genuine duplicate.
	short := stream.ShortItems(n, 16, true, 3, rand.New(rand.NewPCG(75, 76)))
	sa := NewShortFinder(n, 16, 0.1, rand.New(rand.NewPCG(77, 78)))
	sb := NewShortFinder(n, 16, 0.1, rand.New(rand.NewPCG(77, 78)))
	for _, it := range short {
		sa.ProcessItem(it)
	}
	sb.ProcessItems(short)
	if !bytes.Equal(stateBytes(sa.AppendState), stateBytes(sb.AppendState)) {
		t.Fatal("ShortFinder: scalar state differs from batched")
	}
	counts := map[int]int{}
	for _, it := range short {
		counts[it]++
	}
	for name, res := range map[string]Result{"scalar": sa.Find(), "batched": sb.Find()} {
		if res.Kind != Duplicate || counts[res.Index] < 2 {
			t.Fatalf("ShortFinder %s: %+v is not a genuine duplicate", name, res)
		}
	}

	long := stream.LongItems(n, 64, rand.New(rand.NewPCG(79, 80)))
	la := NewLongFinder(n, 64, 0.1, 1, rand.New(rand.NewPCG(81, 82)))
	lb := NewLongFinder(n, 64, 0.1, 1, rand.New(rand.NewPCG(81, 82)))
	for _, it := range long {
		la.ProcessItem(it)
	}
	lb.ProcessItems(long)
	if ra, rb := la.Find(), lb.Find(); ra != rb {
		t.Fatalf("LongFinder(sampler): scalar %+v != batched %+v", ra, rb)
	}
	if !bytes.Equal(stateBytes(la.finder.AppendState), stateBytes(lb.finder.AppendState)) {
		t.Fatal("LongFinder(sampler): scalar state differs from batched")
	}
}

// TestShortFinderMergeEqualsWhole: two same-seed ShortFinder replicas fed
// halves of an item stream, merged, must hold exactly the state of one
// finder that saw the whole stream (the pigeonhole prefix is compensated,
// as in Finder.Merge).
func TestShortFinderMergeEqualsWhole(t *testing.T) {
	const n, s = 256, 16
	items := stream.ShortItems(n, s, true, 3, rand.New(rand.NewPCG(91, 92)))
	mk := func() *ShortFinder { return NewShortFinder(n, s, 0.1, rand.New(rand.NewPCG(93, 94))) }
	whole, a, b := mk(), mk(), mk()
	whole.ProcessItems(items)
	half := len(items) / 2
	a.ProcessItems(items[:half])
	b.ProcessItems(items[half:])
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	wa, ma := stateBytes(whole.rec.AppendState), stateBytes(a.rec.AppendState)
	for i := range wa {
		if wa[i] != ma[i] {
			t.Fatalf("merged recoverer state differs from whole-stream state at byte %d", i)
		}
	}
	if wk, mk := whole.Find().Kind, a.Find().Kind; wk != mk {
		t.Fatalf("whole-stream Find kind %v != merged %v", wk, mk)
	}
}

// TestShortFinderMergeRejectsMismatch: differently seeded or differently
// shaped replicas must be rejected before any mutation.
func TestShortFinderMergeRejectsMismatch(t *testing.T) {
	a := NewShortFinder(256, 16, 0.1, rand.New(rand.NewPCG(95, 96)))
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge must fail")
	}
	if err := a.Merge(NewShortFinder(128, 16, 0.1, rand.New(rand.NewPCG(95, 96)))); err == nil {
		t.Error("different-n merge must fail")
	}
	if err := a.Merge(NewShortFinder(256, 16, 0.1, rand.New(rand.NewPCG(97, 98)))); err == nil {
		t.Error("different-seed merge must fail")
	}
}
