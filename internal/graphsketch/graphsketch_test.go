package graphsketch

import (
	"math/rand/v2"
	"testing"
)

func TestEdgeSlotRoundTrip(t *testing.T) {
	g := New(10, 0.1, rand.New(rand.NewPCG(1, 1)))
	seen := map[int]bool{}
	for u := 0; u < 10; u++ {
		for w := u + 1; w < 10; w++ {
			s := g.EdgeSlot(u, w)
			if s < 0 || s >= g.slots {
				t.Fatalf("slot %d out of range", s)
			}
			if seen[s] {
				t.Fatalf("slot %d reused", s)
			}
			seen[s] = true
			ru, rw := g.SlotEdge(s)
			if ru != u || rw != w {
				t.Fatalf("SlotEdge(%d) = (%d,%d), want (%d,%d)", s, ru, rw, u, w)
			}
			if g.EdgeSlot(w, u) != s {
				t.Fatal("EdgeSlot must be symmetric")
			}
		}
	}
	if len(seen) != 45 {
		t.Fatalf("%d slots, want 45", len(seen))
	}
}

func TestPathGraphConnected(t *testing.T) {
	r := rand.New(rand.NewPCG(2, 2))
	const v = 32
	g := New(v, 0.1, r)
	for i := 1; i < v; i++ {
		g.AddEdge(i-1, i)
	}
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
}

func TestTwoCliquesTwoComponents(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 3))
	const v = 20
	g := New(v, 0.1, r)
	for a := 0; a < 10; a++ {
		for b := a + 1; b < 10; b++ {
			g.AddEdge(a, b)
			g.AddEdge(a+10, b+10)
		}
	}
	if got := g.Components(); got != 2 {
		t.Fatalf("components = %d, want 2", got)
	}
}

func TestDeletionDisconnects(t *testing.T) {
	// A bridge edge is inserted and then deleted: connectivity must flip.
	r := rand.New(rand.NewPCG(4, 4))
	const v = 16
	mk := func(withBridge bool) *Sketch {
		g := New(v, 0.05, r)
		// two paths 0..7 and 8..15
		for i := 1; i < 8; i++ {
			g.AddEdge(i-1, i)
			g.AddEdge(i+7, i+8)
		}
		g.AddEdge(3, 12) // bridge
		if !withBridge {
			g.RemoveEdge(3, 12)
		}
		return g
	}
	if !mk(true).Connected() {
		t.Fatal("bridged graph reported disconnected")
	}
	if mk(false).Connected() {
		t.Fatal("graph with deleted bridge reported connected")
	}
}

func TestSpanningForestSize(t *testing.T) {
	// A connected graph on v vertices yields exactly v-1 forest edges, and
	// every forest edge must be a real edge of the graph.
	r := rand.New(rand.NewPCG(5, 5))
	const v = 24
	g := New(v, 0.05, r)
	edges := map[[2]int]bool{}
	perm := r.Perm(v)
	for i := 1; i < v; i++ {
		a, b := perm[i-1], perm[i]
		g.AddEdge(a, b)
		if a > b {
			a, b = b, a
		}
		edges[[2]int{a, b}] = true
	}
	for k := 0; k < v; k++ { // random chords
		a, b := r.IntN(v), r.IntN(v)
		if a == b {
			continue
		}
		key := [2]int{min(a, b), max(a, b)}
		if edges[key] {
			continue
		}
		g.AddEdge(a, b)
		edges[key] = true
	}
	comp, forest := g.SpanningForest()
	c0 := comp[0]
	for _, c := range comp {
		if c != c0 {
			t.Fatal("connected graph split into components")
		}
	}
	if len(forest) != v-1 {
		t.Fatalf("forest has %d edges, want %d", len(forest), v-1)
	}
	for _, e := range forest {
		key := [2]int{min(e[0], e[1]), max(e[0], e[1])}
		if !edges[key] {
			t.Fatalf("forest edge %v is not a graph edge", e)
		}
	}
}

func TestChurnedChordsIrrelevant(t *testing.T) {
	// Insert many chords and delete them all: connectivity must rest only
	// on the surviving path.
	r := rand.New(rand.NewPCG(6, 6))
	const v = 24
	g := New(v, 0.05, r)
	for i := 1; i < v; i++ {
		g.AddEdge(i-1, i)
	}
	var chords [][2]int
	for k := 0; k < 4*v; k++ {
		a, b := r.IntN(v), r.IntN(v)
		if a != b {
			g.AddEdge(a, b)
			chords = append(chords, [2]int{a, b})
		}
	}
	for _, c := range chords {
		g.RemoveEdge(c[0], c[1])
	}
	if !g.Connected() {
		t.Fatal("post-churn path graph reported disconnected")
	}
}

func TestEmptyGraphAllSingletons(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	g := New(8, 0.1, r)
	if got := g.Components(); got != 8 {
		t.Fatalf("empty graph components = %d, want 8", got)
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self loop")
		}
	}()
	New(4, 0.1, rand.New(rand.NewPCG(8, 8))).AddEdge(2, 2)
}

func TestSpaceScalesWithVertices(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 9))
	small := New(8, 0.2, r)
	big := New(64, 0.2, r)
	if big.SpaceBits() <= small.SpaceBits() {
		t.Error("space must grow with V")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestAddEdgesMatchesScalar pins the batched edge path to the scalar one
// bit-for-bit: same-seed sketches fed the same edges through AddEdges vs an
// AddEdge loop must hold identical linear state in every (round, vertex)
// sampler, and removals must cancel exactly.
func TestAddEdgesMatchesScalar(t *testing.T) {
	const v = 24
	mk := func() *Sketch { return New(v, 0.2, rand.New(rand.NewPCG(51, 52))) }
	scalar, batched := mk(), mk()
	r := rand.New(rand.NewPCG(53, 54))
	var edges [][2]int
	for i := 0; i < 200; i++ {
		u, w := r.IntN(v), r.IntN(v)
		if u == w {
			continue
		}
		edges = append(edges, [2]int{u, w})
	}
	for _, e := range edges {
		scalar.AddEdge(e[0], e[1])
	}
	batched.AddEdges(edges)
	for tr := 0; tr < scalar.rounds; tr++ {
		for vert := 0; vert < v; vert++ {
			a := l0State(scalar.sk[tr][vert])
			b := l0State(batched.sk[tr][vert])
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d vertex %d: state differs at byte %d", tr, vert, i)
				}
			}
		}
	}
	// Batched removal of every edge must return the sketch to all-zero.
	batched.RemoveEdges(edges)
	for tr := 0; tr < batched.rounds; tr++ {
		for vert := 0; vert < v; vert++ {
			if _, ok := batched.sk[tr][vert].Sample(); ok {
				t.Fatalf("round %d vertex %d: state nonzero after removing all edges", tr, vert)
			}
		}
	}
}

// TestAddEdgesConnectivity runs the full Borůvka pipeline over a
// batch-ingested graph.
func TestAddEdgesConnectivity(t *testing.T) {
	const v = 32
	g := New(v, 0.1, rand.New(rand.NewPCG(55, 56)))
	edges := make([][2]int, 0, v-1)
	for i := 1; i < v; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	g.AddEdges(edges)
	if !g.Connected() {
		t.Fatal("batch-ingested path graph must be connected")
	}
}

// BenchmarkGraphIngestBatched measures edge ingestion through AddEdges (the
// batched L0 path); BenchmarkGraphIngestScalar is the same workload through
// per-edge AddEdge calls. ns/op divided by the batch size is the per-edge
// cost across all rounds × 2 endpoint samplers.
func BenchmarkGraphIngestBatched(b *testing.B) {
	const v = 64
	g := New(v, 0.2, rand.New(rand.NewPCG(61, 62)))
	r := rand.New(rand.NewPCG(63, 64))
	edges := make([][2]int, 2048)
	for i := range edges {
		u := r.IntN(v)
		w := r.IntN(v - 1)
		if w >= u {
			w++
		}
		edges[i] = [2]int{u, w}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdges(edges)
	}
	b.ReportMetric(float64(b.N*len(edges))/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkGraphIngestScalar(b *testing.B) {
	const v = 64
	g := New(v, 0.2, rand.New(rand.NewPCG(61, 62)))
	r := rand.New(rand.NewPCG(63, 64))
	edges := make([][2]int, 2048)
	for i := range edges {
		u := r.IntN(v)
		w := r.IntN(v - 1)
		if w >= u {
			w++
		}
		edges[i] = [2]int{u, w}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range edges {
			g.AddEdge(e[0], e[1])
		}
	}
	b.ReportMetric(float64(b.N*len(edges))/b.Elapsed().Seconds(), "edges/s")
}

// TestAddEdgesSelfLoopLeavesNoResidue: a batch containing a self loop must
// panic before any update is buffered or delivered, so a recovering caller
// can keep using the sketch.
func TestAddEdgesSelfLoopLeavesNoResidue(t *testing.T) {
	mk := func() *Sketch { return New(8, 0.2, rand.New(rand.NewPCG(65, 66))) }
	poisoned, clean := mk(), mk()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on self loop in batch")
			}
		}()
		poisoned.AddEdges([][2]int{{0, 1}, {3, 3}})
	}()
	// The failed batch must not have touched any sampler or scratch state:
	// subsequent batched ingestion must match a never-poisoned sketch.
	edges := [][2]int{{0, 1}, {1, 2}, {4, 5}}
	poisoned.AddEdges(edges)
	clean.AddEdges(edges)
	for tr := 0; tr < clean.rounds; tr++ {
		for v := 0; v < 8; v++ {
			a := l0State(poisoned.sk[tr][v])
			b := l0State(clean.sk[tr][v])
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round %d vertex %d: residue from failed batch at byte %d", tr, v, i)
				}
			}
		}
	}
}
