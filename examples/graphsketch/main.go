// Dynamic graph connectivity from L0 samplers — the flagship downstream
// application of the paper's Theorem 2 sampler (Ahn-Guha-McGregor, SODA'12,
// builds exactly on such samplers; this example implements the idea on this
// repository's public API).
//
// Encode each vertex v as a vector a_v over edge slots {u < w}:
//
//	a_v[(u,w)] = +1 if v = u and edge (u,w) present,
//	             -1 if v = w and edge (u,w) present,
//	              0 otherwise.
//
// For any vertex set S, sum_{v in S} a_v has support exactly the cut edges
// of S: edges inside S cancel (+1 + -1), edges leaving S survive. So an
// L0 sample of the *merged* sketches of S returns a random cut edge — which
// is all Borůvka's algorithm needs to build a spanning forest. Edge
// deletions are plain -1/+1 updates, so the sketch survives churn that
// breaks incremental union-find.
//
// Each Borůvka round must use a fresh sketch copy (sampling from a sketch
// conditioned on earlier answers would bias it), hence the log(V) batches.
//
// Run: go run ./examples/graphsketch (exits 1 if the graph is not found
// connected; main_test.go runs the same fixed-seed graph under go test).
package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	streamsample "repro"
)

// edgeSlot numbers the pair (u,w), u < w, in the triangular enumeration.
func edgeSlot(u, w, v int) int {
	if u > w {
		u, w = w, u
	}
	// slot = u*V - u(u+1)/2 + (w-u-1)
	return u*v - u*(u+1)/2 + (w - u - 1)
}

// vertexSketches holds one sketch copy per Borůvka round for one vertex.
type vertexSketches struct {
	rounds []*streamsample.L0Sampler
}

func main() {
	if !run(os.Stdout) {
		os.Exit(1)
	}
}

// run builds the fixed-seed graph, churns its chords away, runs Borůvka over
// the vertex sketches, narrates each round to w and reports whether the
// spanning forest came out connected.
func run(w io.Writer) bool {
	const V = 64
	slots := V * (V - 1) / 2
	rounds := 7 // ceil(log2 V) + 1
	r := rand.New(rand.NewPCG(5, 12))

	// Build a random graph that is connected by construction (a scrambled
	// spanning path plus random chords), then delete some chords to show
	// the sketch handles churn.
	perm := r.Perm(V)
	type edge struct{ u, w int }
	var edges []edge
	for i := 1; i < V; i++ {
		edges = append(edges, edge{perm[i-1], perm[i]})
	}
	var chords []edge
	for k := 0; k < 3*V; k++ {
		u, w := r.IntN(V), r.IntN(V)
		if u != w {
			chords = append(chords, edge{u, w})
		}
	}

	// Per-vertex, per-round sketches. All sketches share one seed so they
	// are mergeable.
	sk := make([]vertexSketches, V)
	for v := 0; v < V; v++ {
		sk[v].rounds = make([]*streamsample.L0Sampler, rounds)
		for t := 0; t < rounds; t++ {
			sk[v].rounds[t] = streamsample.NewL0Sampler(slots,
				streamsample.WithSeed(uint64(1000+t)), streamsample.WithDelta(0.1))
		}
	}
	apply := func(e edge, sign int64) {
		slot := edgeSlot(e.u, e.w, V)
		lo, hi := e.u, e.w
		if lo > hi {
			lo, hi = hi, lo
		}
		for t := 0; t < rounds; t++ {
			sk[lo].rounds[t].Update(slot, sign)
			sk[hi].rounds[t].Update(slot, -sign)
		}
	}
	for _, e := range edges {
		apply(e, 1)
	}
	for _, e := range chords {
		apply(e, 1)
	}
	// Churn: delete all chords again — connectivity now rests on the path.
	for _, e := range chords {
		apply(e, -1)
	}
	fmt.Fprintf(w, "graph: %d vertices, %d path edges, %d chords inserted then deleted\n",
		V, len(edges), len(chords))

	// Borůvka over sketches: components merge by summing sketches.
	comp := make([]int, V)
	for v := range comp {
		comp[v] = v
	}
	find := func(v int) int {
		for comp[v] != v {
			comp[v] = comp[comp[v]]
			v = comp[v]
		}
		return v
	}
	components := V
	for t := 0; t < rounds && components > 1; t++ {
		// Merge this round's sketches per component.
		merged := map[int]*streamsample.L0Sampler{}
		for v := 0; v < V; v++ {
			c := find(v)
			if merged[c] == nil {
				merged[c] = sk[v].rounds[t]
			} else if err := merged[c].Merge(sk[v].rounds[t]); err != nil {
				panic(err) // same-seed by construction
			}
		}
		// Sample one outgoing edge per component and contract.
		joins := 0
		for _, m := range merged {
			slot, _, ok := m.Sample()
			if !ok {
				continue // isolated or sampler failure this round
			}
			u, w := slotToEdge(slot, V)
			cu, cw := find(u), find(w)
			if cu != cw {
				comp[cu] = cw
				components--
				joins++
			}
		}
		fmt.Fprintf(w, "round %d: %d merges, %d components left\n", t, joins, components)
	}
	fmt.Fprintf(w, "spanning forest complete: connected = %v (expected true)\n", components == 1)
	return components == 1
}

// slotToEdge inverts edgeSlot.
func slotToEdge(slot, v int) (int, int) {
	u := 0
	for {
		rowLen := v - u - 1
		if slot < rowLen {
			return u, u + 1 + slot
		}
		slot -= rowLen
		u++
	}
}
