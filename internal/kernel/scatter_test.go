package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// randDeltas returns float64 deltas with wildly mixed magnitudes and signs,
// so any reordering of per-cell additions changes the rounded result — the
// sharpest probe for the stability contract.
func randDeltas(r *rand.Rand, n int) []float64 {
	del := make([]float64, n)
	for i := range del {
		del[i] = r.NormFloat64() * math.Ldexp(1, r.Intn(80)-40)
	}
	return del
}

// randBuckets returns n indices < width, skewed so that small widths force
// frequent repeats of one cell inside a batch (where accumulation order
// shows) and large widths exercise the spread-out, prefetched path.
func randBuckets(r *rand.Rand, n, width int) []uint64 {
	idx := make([]uint64, n)
	for i := range idx {
		if r.Intn(4) == 0 {
			idx[i] = uint64(r.Intn(1 + width/64)) // hot head: duplicates
		} else {
			idx[i] = uint64(r.Intn(width))
		}
	}
	return idx
}

// TestScatterAddDifferential pins every table's raw scatter fold against the
// scalar reference, bit for bit, across widths and batch sizes straddling
// the gates of the amd64 wrappers.
func TestScatterAddDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(8001))
	for _, vt := range vectorTables() {
		// 65536/65537 straddle the amd64 NP/PF width gate (scatterNPMaxCells).
		for _, width := range []int{1, 7, 1023, 1024, 4096, 65536, 65537, 1 << 17} {
			// 3-5 straddle the NP loop's 4-wide body; 47-51 straddle
			// scatterPFMinBatch, where the PF loop's read-ahead is tightest.
			for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 16, 47, 48, 49, 50, 51, 255, 1024} {
				idx := randBuckets(r, n, width)
				del := randDeltas(r, n)
				want := make([]float64, width)
				got := make([]float64, width)
				for i := range want {
					want[i] = r.NormFloat64()
					got[i] = want[i]
				}
				scalarTable.scatterAddF64(want, idx, del)
				vt.scatterAddF64(got, idx, del)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s scatterAddF64 width=%d n=%d: cells[%d] = %x, scalar %x",
							vt.name, width, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}

				deli := make([]int64, n)
				for i := range deli {
					deli[i] = int64(r.Uint64())
				}
				wantI := make([]int64, width)
				gotI := make([]int64, width)
				for i := range wantI {
					wantI[i] = int64(r.Uint64())
					gotI[i] = wantI[i]
				}
				scalarTable.scatterAddI64(wantI, idx, deli)
				vt.scatterAddI64(gotI, idx, deli)
				for i := range wantI {
					if wantI[i] != gotI[i] {
						t.Fatalf("%s scatterAddI64 width=%d n=%d: cells[%d] = %d, scalar %d",
							vt.name, width, n, i, gotI[i], wantI[i])
					}
				}
			}
		}
	}
}

// TestScatterAddNilScratch checks the exported entry points under every
// selectable variant: ScatterAddF64/I64 reach the selected table's fold and
// ignore their first argument, nil or not.
func TestScatterAddNilScratch(t *testing.T) {
	restoreSelection(t)
	r := rand.New(rand.NewSource(8003))
	const width, n = 1<<16 + 5, 1024 // past the amd64 NP/PF width gate
	idx := randBuckets(r, n, width)
	del := randDeltas(r, n)
	deli := make([]int64, n)
	for i := range deli {
		deli[i] = int64(r.Uint64())
	}
	want := make([]float64, width)
	wantI := make([]int64, width)
	scalarScatterAddF64(want, idx, del)
	scalarScatterAddI64(wantI, idx, deli)
	for _, name := range Variants() {
		if err := Select(name); err != nil {
			t.Fatalf("Select(%q): %v", name, err)
		}
		got := make([]float64, width)
		ScatterAddF64(nil, got, idx, del)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s ScatterAddF64: cells[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
		gotI := make([]int64, width)
		ScatterAddI64(&ScatterScratch{}, gotI, idx, deli)
		for i := range wantI {
			if wantI[i] != gotI[i] {
				t.Fatalf("%s ScatterAddI64: cells[%d] = %d, want %d", name, i, gotI[i], wantI[i])
			}
		}
	}
}
