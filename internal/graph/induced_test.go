package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/outerplanar"
	"repro/internal/treewidth2"
)

// mapInduced is the per-part construction the composite protocols used
// before InducedParts: an index map over the part, then a scan of every
// edge of g. It is the reference the single-pass builder must match.
func mapInduced(g *graph.Graph, verts []int) *graph.Graph {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	h := graph.New(len(verts))
	for _, e := range g.Edges() {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			h.MustAddEdge(iu, iv)
		}
	}
	return h
}

// mapBlock is the reference for BiconnectedDecomposition.Block: the
// block's own edges, in decomposition order, through an index map.
func mapBlock(dec *graph.BiconnectedDecomposition, c int) *graph.Graph {
	idx := make(map[int]int)
	for i, v := range dec.Vertices[c] {
		idx[v] = i
	}
	h := graph.New(len(dec.Vertices[c]))
	for _, e := range dec.Components[c] {
		h.MustAddEdge(idx[e.U], idx[e.V])
	}
	return h
}

// sameGraph demands identical vertex count, edge order and per-vertex
// port order (neighbors and port edge ids): everything a protocol run's
// fingerprint can observe.
func sameGraph(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: N = %d, want %d", what, got.N(), want.N())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("%s: edges %v, want %v", what, got.Edges(), want.Edges())
	}
	for v := 0; v < got.N(); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("%s: vertex %d ports %v, want %v", what, v, got.Neighbors(v), want.Neighbors(v))
		}
		if !slices.Equal(got.PortEdgeIDs(v), want.PortEdgeIDs(v)) {
			t.Fatalf("%s: vertex %d port edge ids %v, want %v", what, v, got.PortEdgeIDs(v), want.PortEdgeIDs(v))
		}
	}
}

func checkParts(t *testing.T, what string, g *graph.Graph, parts [][]int) {
	t.Helper()
	ip := g.InducedParts(parts)
	for i, verts := range parts {
		want := mapInduced(g, verts)
		sameGraph(t, what, ip.Graph(i), want)
		one, orig := g.InducedSubgraph(verts)
		sameGraph(t, what+" (InducedSubgraph)", one, want)
		if !slices.Equal(orig, verts) {
			t.Fatalf("%s: InducedSubgraph mapping %v, want %v", what, orig, verts)
		}
	}
}

// TestInducedPartsHonestPlans: on honest outerplanar and treewidth-2
// plans, every per-block sub-instance is the one the per-block map scan
// built, and every decomposition block matches its map-built reference.
func TestInducedPartsHonestPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 12; trial++ {
		og := gen.Outerplanar(rng, 5+rng.Intn(150), 0.4).G
		op, err := outerplanar.HonestPlan(og)
		if err != nil {
			t.Fatal(err)
		}
		checkParts(t, "outerplanar plan", og, op.Paths)

		tg := gen.Treewidth2(rng, 5+rng.Intn(150)).G
		tp, err := treewidth2.HonestPlan(tg)
		if err != nil {
			t.Fatal(err)
		}
		checkParts(t, "treewidth2 plan", tg, tp.BlockVerts)

		for _, g := range []*graph.Graph{og, tg} {
			dec := graph.Biconnected(g)
			for c := range dec.Components {
				got, orig := dec.Block(c)
				sameGraph(t, "Block", got, mapBlock(dec, c))
				if !slices.Equal(orig, dec.Vertices[c]) {
					t.Fatalf("Block(%d) mapping %v, want %v", c, orig, dec.Vertices[c])
				}
			}
		}
	}
}

// TestInducedPartsAdversarialLists: arbitrary vertex lists — overlapping
// parts, repeated vertices (the last position wins, the earlier one is
// isolated), out-of-range entries, empty parts — on both map-built and
// builder-built graphs.
func TestInducedPartsAdversarialLists(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		gm := graph.New(n)
		b := graph.NewBuilder(n)
		for k := 0; k < 3*n; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !gm.HasEdge(u, v) {
				gm.MustAddEdge(u, v)
				b.AddEdge(u, v)
			}
		}
		gb, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]int, rng.Intn(8))
		for i := range parts {
			part := make([]int, rng.Intn(2*n+2))
			for j := range part {
				part[j] = rng.Intn(n+4) - 2 // a few out of range on each side
			}
			parts[i] = part
		}
		checkParts(t, "map-built", gm, parts)
		checkParts(t, "builder-built", gb, parts)
	}
	// The repeated-vertex rule, spelled out.
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	h := g.InducedParts([][]int{{1, 0, 1, 2}}).Graph(0)
	if h.Degree(0) != 0 || !h.HasEdge(1, 2) || !h.HasEdge(2, 3) || h.M() != 2 {
		t.Fatalf("repeated vertex: edges %v", h.Edges())
	}
}
