package graphsketch

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// l0State is one vertex sampler's linear state, the digest the tests compare.
func l0State(s *core.L0Sampler) []byte {
	var e codec.Encoder
	s.AppendState(&e)
	return e.Bytes()
}

// TestCheckpointRoundTrip pins the graph summary's codec path: AppendState
// into a same-seed fresh instance reproduces every per-round, per-vertex
// sampler bit for bit, and the restored sketch answers connectivity
// queries like the original.
func TestCheckpointRoundTrip(t *testing.T) {
	const v = 24
	build := func() *Sketch { return New(v, 0.1, rand.New(rand.NewPCG(41, 42))) }
	edges := [][2]int{}
	for i := 0; i < v-1; i++ {
		edges = append(edges, [2]int{i, i + 1}) // a path: connected
	}
	orig := build()
	orig.AddEdges(edges)
	orig.RemoveEdge(0, 1) // a deletion, so the checkpoint carries churn
	orig.AddEdge(0, 1)

	e := codec.NewEncoder(codec.KindGraphSketch)
	orig.AppendState(e)

	restored := build()
	d, err := codec.NewDecoder(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	restored.RestoreState(d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	for tr := 0; tr < orig.rounds; tr++ {
		for vert := 0; vert < v; vert++ {
			a := l0State(orig.sk[tr][vert])
			b := l0State(restored.sk[tr][vert])
			if !bytes.Equal(a, b) {
				t.Fatalf("round %d vertex %d: restored sampler state differs", tr, vert)
			}
		}
	}
	if !restored.Connected() {
		t.Fatal("restored path graph must report connected")
	}
}
