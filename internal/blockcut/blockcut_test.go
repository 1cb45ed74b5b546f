package blockcut

import (
	"math/rand"
	"testing"

	"repro/internal/dip"
	"repro/internal/graph"
)

// twoTriangles is the honest witness for triangles 0-1-2 and 2-3-4 glued
// at the cut vertex 2: F is the path 0-1-2-3-4 rooted at 0, block 0 is
// the root block, and block 1 hangs off 2 through its leader 3.
func twoTriangles() (*graph.Graph, *Witness, []Anchor) {
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		g.MustAddEdge(e[0], e[1])
	}
	w := &Witness{
		ParentF:  []int{-1, 0, 1, 2, 3},
		Home:     []int{0, 0, 0, 1, 1},
		Root:     0,
		RootComp: 0,
		IsCut:    []bool{false, false, true, false, false},
		IsLeader: []bool{true, false, false, true, false},
	}
	return g, w, []Anchor{{Sep: 0, Lead: 0}, {Sep: 2, Lead: 3}}
}

// runStage runs the stage once and returns every node's verdict.
func runStage(t *testing.T, g *graph.Graph, w *Witness, anchors []Anchor, seed int64) []bool {
	t.Helper()
	res, err := Protocol("test", g, NewParams(g.N()), w, anchors, nil).
		RunOnce(dip.NewInstance(g), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res.NodeOutputs
}

func TestHonestWitnessAccepted(t *testing.T) {
	g, w, anchors := twoTriangles()
	for seed := int64(1); seed <= 5; seed++ {
		for v, ok := range runStage(t, g, w, anchors, seed) {
			if !ok {
				t.Fatalf("seed %d: node %d rejected the honest witness", seed, v)
			}
		}
	}
}

// TestForgedWitnessRejected forges one part of the honest witness per
// case so that exactly one of the verifier's checks fails at the named
// node; that node must reject.
func TestForgedWitnessRejected(t *testing.T) {
	cases := []struct {
		name string
		// forge edits the honest two-triangle instance.
		forge   func(g *graph.Graph, w *Witness, anchors []Anchor) []Anchor
		rejects int
	}{
		{
			name: "cut flag without leader children",
			forge: func(g *graph.Graph, w *Witness, a []Anchor) []Anchor {
				w.IsCut[1] = true
				return a
			},
			rejects: 1,
		},
		{
			// 1 claims to lead a block of its own under 0, which is not
			// cut; 1 is itself a cut vertex above the leader 2, so only
			// the check on its parent's cut flag fails at 1.
			name: "leader under a non-cut vertex",
			forge: func(g *graph.Graph, w *Witness, a []Anchor) []Anchor {
				w.IsLeader[1], w.IsLeader[2] = true, true
				w.IsCut[1] = true
				w.Home[1], w.Home[2] = 2, 3
				return append(a, Anchor{Sep: 0, Lead: 1}, Anchor{Sep: 1, Lead: 2})
			},
			rejects: 1,
		},
		{
			name: "root echoes another node's string",
			forge: func(g *graph.Graph, w *Witness, a []Anchor) []Anchor {
				w.Root = 1
				return a
			},
			rejects: 0,
		},
		{
			name: "leader echoes another node's string as lead",
			forge: func(g *graph.Graph, w *Witness, a []Anchor) []Anchor {
				a[1].Lead = 4
				return a
			},
			rejects: 3,
		},
		{
			// The cut vertex 2 echoes its child block's anchors instead
			// of its parent's.
			name: "sep and lead not inherited from the parent",
			forge: func(g *graph.Graph, w *Witness, a []Anchor) []Anchor {
				w.Home[2] = 1
				return a
			},
			rejects: 2,
		},
		{
			name: "non-cut vertex with an edge leaving its block",
			forge: func(g *graph.Graph, w *Witness, a []Anchor) []Anchor {
				g.MustAddEdge(1, 4)
				return a
			},
			rejects: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, w, anchors := twoTriangles()
			anchors = tc.forge(g, w, anchors)
			for seed := int64(1); seed <= 5; seed++ {
				if runStage(t, g, w, anchors, seed)[tc.rejects] {
					t.Fatalf("seed %d: node %d accepted", seed, tc.rejects)
				}
			}
		})
	}
}
