package kernel

// AVX2 / AVX-512 detection and the amd64 vector tables. Detection follows
// the standard protocol: leaf 1 must report AVX and OSXSAVE, XGETBV must
// confirm the OS saves the relevant register state on context switch, and
// leaf 7 must report the ISA bits — skipping the XGETBV check would SIGILL
// on kernels with AVX (or AVX-512) state disabled. The AVX-512 tier
// additionally requires opmask/ZMM/Hi16-ZMM XSAVE state and the F/CD/DQ/VL
// feature quartet — the Skylake-SP-and-later baseline these kernels are
// tested on; the instructions they use are all AVX-512F. When AVX512_IFMA
// is also present, the two modmul-bound primitives switch to the 52-bit
// VPMADD52 limb kernels.

//go:noescape
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func polyEvalBatchAVX2(coef []uint64, xs []uint64, out []uint64)

//go:noescape
func bucketSign2AVX2(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)

//go:noescape
func polyEvalBatchAVX512(coef []uint64, xs []uint64, out []uint64)

//go:noescape
func bucketSign2AVX512(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)

//go:noescape
func polyEvalBatchIFMA(coef []uint64, xs []uint64, out []uint64)

//go:noescape
func polyEvalRowsIFMA(cs []uint64, k int, xs []uint64, out []uint64, stride int)

//go:noescape
func syndromeFoldIFMA(synd, d, a []uint64)

//go:noescape
func bucketSign2IFMA(h0, h1, g0, g1, m uint64, xs []uint64, buckets []uint64, signs []float64)

//go:noescape
func cauchyAVX512(u []float64, out []float64)

//go:noescape
func scatterAddF64PF(cells []float64, idx []uint64, del []float64)

//go:noescape
func scatterAddI64PF(cells []int64, idx []uint64, del []int64)

//go:noescape
func scatterAddF64NP(cells []float64, idx []uint64, del []float64)

//go:noescape
func scatterAddI64NP(cells []int64, idx []uint64, del []int64)

func detect() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if c1&osxsaveAVX != osxsaveAVX {
		return
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM and YMM state enabled by the OS
		return
	}
	_, b7, _, _ := cpuid(7, 0)
	if b7&(1<<5) == 0 { // AVX2
		return
	}
	available = append(available, &avx2Table)

	// AVX-512: leaf-7 EBX F(16), DQ(17), CD(28), VL(31), plus XCR0
	// opmask(5)/ZMM_Hi256(6)/Hi16_ZMM(7) state on top of the XMM/YMM bits
	// already checked — 0xE6 altogether.
	const avx512Feat = 1<<16 | 1<<17 | 1<<28 | 1<<31
	if b7&avx512Feat != avx512Feat || xcr0&0xE6 != 0xE6 {
		return
	}
	if b7&(1<<21) != 0 { // AVX512_IFMA: 52-bit multiply-add limb kernels
		avx512Table.polyEvalBatch = avx512PolyEvalBatchIFMA
		avx512Table.polyEvalRows = avx512PolyEvalRowsIFMA
		avx512Table.bucketSign2 = avx512BucketSign2IFMA
		avx512Table.ifma = true
		// Keep the VPMULUDQ flavor reachable for the differential tests:
		// an IFMA machine can run both, so both get pinned against scalar.
		alt := avx512Table
		alt.polyEvalBatch = avx512PolyEvalBatch
		alt.polyEvalRows = nil
		alt.bucketSign2 = avx512BucketSign2
		alt.ifma = false
		testAltTables = append(testAltTables, &alt)
	}
	available = append(available, &avx512Table)
}

// avx2Table vectorizes the two field primitives at 4 lanes. The Go wrappers
// route 4-lane blocks to assembly and delegate tails and degenerate shapes
// to the scalar reference, so the assembly only ever sees its documented
// preconditions. The counter scatter is the prefetched scalar-order loop —
// baseline amd64 instructions, no AVX needed (AVX2 has gathers but no
// scatter stores, so there is no 4-lane vector fold to have). The Cauchy
// transform is the scalar reference: its lane form leans on AVX-512's
// float-to-int64 conversions and opmask selects.
var avx2Table = table{
	name:          AVX2,
	polyEvalBatch: avx2PolyEvalBatch,
	bucketSign2:   avx2BucketSign2,
	scatterAddF64: amd64ScatterAddF64,
	scatterAddI64: amd64ScatterAddI64,
	cauchy:        scalarCauchy,
}

// avx512Table widens the modmul-bound primitives to 8 lanes. The counter
// scatter keeps the prefetched scalar-order loop: a zmm gather+scatter pair
// costs the same store-port budget as eight scalar read-modify-writes and
// cannot prefetch ahead. The Cauchy
// transform runs math.tan's sequence eight lanes at a time
// (kernel_cauchy_amd64.s). detect() swaps the modmul pair to the IFMA52
// flavor when the CPU has it.
var avx512Table = table{
	name:          AVX512,
	polyEvalBatch: avx512PolyEvalBatch,
	bucketSign2:   avx512BucketSign2,
	scatterAddF64: amd64ScatterAddF64,
	scatterAddI64: amd64ScatterAddI64,
	cauchy:        avx512Cauchy,
}

func avx2PolyEvalBatch(coef, xs, out []uint64) {
	out = out[:len(xs)]
	if len(coef) == 0 {
		clear(out)
		return
	}
	n := len(xs) &^ 3
	if n > 0 {
		polyEvalBatchAVX2(coef, xs[:n], out[:n])
	}
	if n < len(xs) {
		scalarPolyEvalBatch(coef, xs[n:], out[n:])
	}
}

func avx2BucketSign2(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64) {
	buckets = buckets[:len(xs)]
	signs = signs[:len(xs)]
	n := len(xs) &^ 3
	if n > 0 {
		bucketSign2AVX2(h0, h1, g0, g1, m, xs[:n], buckets[:n], signs[:n])
	}
	if n < len(xs) {
		scalarBucketSign2(h0, h1, g0, g1, m, xs[n:], buckets[n:], signs[n:])
	}
}

func avx512PolyEvalBatch(coef, xs, out []uint64) {
	out = out[:len(xs)]
	if len(coef) == 0 {
		clear(out)
		return
	}
	n := len(xs) &^ 7
	if n > 0 {
		polyEvalBatchAVX512(coef, xs[:n], out[:n])
	}
	if n < len(xs) {
		scalarPolyEvalBatch(coef, xs[n:], out[n:])
	}
}

func avx512BucketSign2(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64) {
	buckets = buckets[:len(xs)]
	signs = signs[:len(xs)]
	n := len(xs) &^ 7
	if n > 0 {
		bucketSign2AVX512(h0, h1, g0, g1, m, xs[:n], buckets[:n], signs[:n])
	}
	if n < len(xs) {
		scalarBucketSign2(h0, h1, g0, g1, m, xs[n:], buckets[n:], signs[n:])
	}
}

func avx512PolyEvalBatchIFMA(coef, xs, out []uint64) {
	out = out[:len(xs)]
	if len(coef) == 0 {
		clear(out)
		return
	}
	n := len(xs) &^ 7
	if n > 0 {
		polyEvalBatchIFMA(coef, xs[:n], out[:n])
	}
	if n < len(xs) {
		scalarPolyEvalBatch(coef, xs[n:], out[n:])
	}
}

// ifmaRowsPerCall bounds the rows of one polyEvalRowsIFMA call: the wrapper
// splits their coefficients into a 2 KiB stack block, 16 words per row.
const ifmaRowsPerCall = 16

// avx512PolyEvalRowsIFMA runs the multi-row kernel over the 8-point blocks of
// xs for 2 <= k <= 8 and two or more rows; a single row, other k and the
// tail points take the per-row paths.
func avx512PolyEvalRowsIFMA(coef []uint64, k int, xs, out []uint64) {
	n, rows := len(xs), len(coef)/k
	n8 := n &^ 7
	if k < 2 || k > 8 || rows < 2 || n8 == 0 {
		for j := range rows {
			avx512PolyEvalBatchIFMA(coef[j*k:(j+1)*k], xs, out[j*n:(j+1)*n])
		}
		return
	}
	const mask52 = 1<<52 - 1
	var cs [ifmaRowsPerCall * 16]uint64
	for j0 := 0; j0 < rows; j0 += ifmaRowsPerCall {
		rs := min(ifmaRowsPerCall, rows-j0)
		for j := range rs {
			c, b := coef[(j0+j)*k:][:k], cs[j*16:][:16]
			b[0] = c[0]
			for i := 1; i < k; i++ {
				b[2*i-1], b[2*i] = c[i]&mask52, c[i]>>52
			}
		}
		polyEvalRowsIFMA(cs[:rs*16], k, xs[:n8], out[j0*n:], n)
	}
	if n8 < n {
		for j := range rows {
			scalarPolyEvalBatch(coef[j*k:(j+1)*k], xs[n8:], out[j*n+n8:(j+1)*n])
		}
	}
}

// ifmaMaxSyndromes bounds the syndromes one syndromeFoldIFMA call folds: its
// lane accumulators, eight words per syndrome, fill its 1.5 KiB frame.
const ifmaMaxSyndromes = 24

// avx512SyndromeFoldIFMA runs SyndromeFold's IFMA kernel over the whole
// batch for up to ifmaMaxSyndromes syndromes (2s <= 24, the L0 sampler's
// s = 10 among them). A longer vector takes the scalar groups: no workload
// folds one yet, so no measurement says a windowed IFMA path would win.
func avx512SyndromeFoldIFMA(synd, d, a []uint64) {
	if len(synd) > ifmaMaxSyndromes {
		scalarSyndromeFold(synd, d, a)
		return
	}
	syndromeFoldIFMA(synd, d, a[:len(d)])
}

func avx512BucketSign2IFMA(h0, h1, g0, g1, m uint64, xs, buckets []uint64, signs []float64) {
	buckets = buckets[:len(xs)]
	signs = signs[:len(xs)]
	n := len(xs) &^ 7
	if n > 0 {
		bucketSign2IFMA(h0, h1, g0, g1, m, xs[:n], buckets[:n], signs[:n])
	}
	if n < len(xs) {
		scalarBucketSign2(h0, h1, g0, g1, m, xs[n:], buckets[n:], signs[n:])
	}
}

func avx512Cauchy(u, out []float64) {
	out = out[:len(u)]
	n := len(u) &^ 7
	if n > 0 {
		cauchyAVX512(u[:n], out[:n])
	}
	if n < len(u) {
		scalarCauchy(u[n:], out[n:])
	}
}

// The amd64 scatter fold has two assembly flavors, picked by row width:
//
//   - NP (no prefetch): tight unrolled read-modify-write loop for rows up to
//     scatterNPMaxCells. Those rows live in L1/L2, where a prefetch hits
//     cache anyway and its address load + PREFETCHT0 are pure port pressure.
//   - PF (prefetched): issues PREFETCHT0 for the cell line scatterPFDist
//     elements ahead, for rows that spill L2 and bind on the line fetch.
//
// scatterPFMinBatch gates the PF loop: the assembly reads idx up to
// scatterPFDist+2 elements ahead of the fold cursor inside its main loop, so
// it needs the batch comfortably longer than the prefetch distance; tiny
// batches take the compiled reference, which is fine because they are
// call-overhead-bound anyway.
const (
	scatterPFDist     = 40 // must match the offsets in kernel_scatter_amd64.s
	scatterPFMinBatch = scatterPFDist + 8

	// scatterNPMaxCells = 512 KiB of float64: comfortably inside the >= 1 MiB
	// L2 of every amd64 target we tune for.
	scatterNPMaxCells = 64 * 1024
)

func amd64ScatterAddF64(cells []float64, idx []uint64, del []float64) {
	del = del[:len(idx)]
	switch {
	case len(cells) <= scatterNPMaxCells:
		if len(idx) < 4 { // NP main loop folds 4 at a time
			scalarScatterAddF64(cells, idx, del)
			return
		}
		scatterAddF64NP(cells, idx, del)
	case len(idx) < scatterPFMinBatch:
		scalarScatterAddF64(cells, idx, del)
	default:
		scatterAddF64PF(cells, idx, del)
	}
}

func amd64ScatterAddI64(cells []int64, idx []uint64, del []int64) {
	del = del[:len(idx)]
	switch {
	case len(cells) <= scatterNPMaxCells:
		if len(idx) < 4 {
			scalarScatterAddI64(cells, idx, del)
			return
		}
		scatterAddI64NP(cells, idx, del)
	case len(idx) < scatterPFMinBatch:
		scalarScatterAddI64(cells, idx, del)
	default:
		scatterAddI64PF(cells, idx, del)
	}
}
