// Package treewidth2 implements the treewidth-at-most-2 DIP of Theorem
// 1.7 via Lemma 8.2: a graph has treewidth <= 2 iff every biconnected
// component is series-parallel.
//
// The protocol follows the Theorem 1.3 template. The prover roots the
// block–cut tree and commits one DFS tree per block, rooted at the
// block's separating vertex, so that the DFS root has exactly one child:
// the block leader. The block–cut structural stage of internal/blockcut,
// shared with the outerplanarity protocol, then checks that the union of
// the DFS trees is a spanning tree (Lemma 2.5, amplified) and isolates
// the blocks with sep/lead random strings. Finally the Theorem 1.6
// series-parallel protocol runs inside every block, with the separating
// vertex's labels deferred to the block leader.
package treewidth2

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/blockcut"
	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/seriesparallel"
)

// Plan is the prover's decomposition witness.
type Plan struct {
	// Witness is what the block–cut structural stage commits: F is the
	// union of the per-block DFS trees, and Home[v] is the block owning v
	// (cut vertices belong to the block of their parent edge, the root
	// anchor to the root block).
	blockcut.Witness
	// BlockVerts[c] lists block c's vertices; BlockVerts[c][0] is the
	// separating vertex (or the root anchor for the root block).
	BlockVerts [][]int
}

// HonestPlan derives the decomposition. It never fails structurally (the
// block-cut tree always exists); non-SP blocks surface later when the
// per-block sub-protocol rejects.
func HonestPlan(g *graph.Graph) (*Plan, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("treewidth2: need n >= 2")
	}
	if !g.IsConnected() {
		return nil, errors.New("treewidth2: need a connected graph")
	}
	bct := graph.NewBlockCutTree(g, 0)
	dec := bct.Decomp
	p := &Plan{Witness: blockcut.NewWitness(dec.IsCut), BlockVerts: make([][]int, len(dec.Components))}
	for _, c := range bct.Order {
		sep := bct.ParentCut[c]
		if c == bct.RootBlock {
			sep = dec.Vertices[c][0]
			p.SetRoot(sep, c)
		}
		sub, orig := dec.Block(c)
		parents := dfsTree(sub, slices.Index(orig, sep))
		// Root of a DFS tree of a biconnected graph has one child: the
		// block leader. The root block's child stays unflagged; the root
		// itself plays the leader there.
		ordered := []int{sep}
		for lv, lp := range parents {
			v := orig[lv]
			if lp == -1 {
				continue
			}
			p.ParentF[v] = orig[lp]
			p.Home[v] = c
			ordered = append(ordered, v)
			if orig[lp] == sep && c != bct.RootBlock {
				p.IsLeader[v] = true
			}
		}
		p.BlockVerts[c] = ordered
	}
	if err := p.Covered(); err != nil {
		return nil, fmt.Errorf("treewidth2: %w", err)
	}
	return p, nil
}

// anchors gives every block's structural anchors: its separating vertex
// and its leader, the first flagged member whose parent is the separating
// vertex (the separating vertex itself when none is).
func (p *Plan) anchors() []blockcut.Anchor {
	a := make([]blockcut.Anchor, len(p.BlockVerts))
	for c, verts := range p.BlockVerts {
		if len(verts) == 0 {
			continue
		}
		a[c] = blockcut.Anchor{Sep: verts[0], Lead: verts[0]}
		for _, v := range verts[1:] {
			if p.IsLeader[v] && p.ParentF[v] == verts[0] {
				a[c].Lead = v
				break
			}
		}
	}
	return a
}

// dfsTree returns true depth-first-search parent pointers rooted at r
// (parents assigned at expansion time, so the root of a biconnected
// graph's DFS tree has exactly one child — the property the block-leader
// construction relies on).
func dfsTree(g *graph.Graph, r int) []int {
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -2
	}
	parent[r] = -1
	type frame struct{ v, ni int }
	stack := []frame{{r, 0}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.ni < g.Degree(top.v) {
			u := g.Neighbors(top.v)[top.ni]
			top.ni++
			if parent[u] == -2 {
				parent[u] = top.v
				stack = append(stack, frame{u, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}
	return parent
}

// Rounds is the declared interaction-round count of Theorem 1.7.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.7 in
// bits: O(log log n), the per-block series-parallel bound plus the
// block-cut structural labels and the deferred separating-vertex copies
// charged to block leaders. delta is unused. Applies to honest runs on
// yes-instances; asserted by the bound-conformance test in
// internal/protocol.
func ProofSizeBound(n, delta int) int {
	b := seriesparallel.ProofSizeBound(n, delta)
	if b == 0 {
		return 0
	}
	return b + b/2
}

// Run executes the composed treewidth-2 DIP. Options attach a tracer;
// the structural stage and every per-block series-parallel sub-run nest
// under the composite's span. Rejecting stages surface in the outcome's
// Rejections map under "structural" and "block" (one count per
// rejecting block sub-run).
func Run(g *graph.Graph, plan *Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	endRun := cfg.CompositeSpan("treewidth2", g.N(), Rounds)
	defer func() { endRun(res) }()
	res = &dip.Outcome{Rounds: Rounds}
	if plan == nil {
		plan, err = HonestPlan(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
	}
	anchors := plan.anchors()
	di := dip.NewInstance(g)
	structural := blockcut.Protocol("treewidth2", g, blockcut.NewParams(g.N()), &plan.Witness, anchors, nil)
	structRes, err := structural.RunOnce(di, rng, cfg.Child("structural")...)
	if err != nil {
		return nil, fmt.Errorf("treewidth2: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	res.TotalLabelBits = structRes.Stats.TotalLabelBits

	merged := dip.NewNodeBits(3, g.N())
	merged.Add(structRes.Stats.LabelBits)

	accepted := structRes.Accepted
	// Biconnected blocks share at most one vertex, so the subgraph
	// induced by a block's vertices is the block itself.
	blocks := g.InducedParts(plan.BlockVerts)
	for c, verts := range plan.BlockVerts {
		if len(verts) < 2 {
			continue
		}
		sres, err := seriesparallel.Run(blocks.Graph(c), nil, rng, cfg.Child(fmt.Sprintf("block-%d", c))...)
		if err != nil {
			return nil, err
		}
		if sres.ProverFailed || !sres.Accepted {
			res.Reject("block")
			accepted = false
			continue
		}
		res.TotalLabelBits += sres.TotalLabelBits
		// Merge: block members carry their own labels; the separating
		// vertex's labels are deferred to the block leader.
		for r, row := range sres.NodeBits {
			if r >= len(merged) {
				break
			}
			for sv, bits := range row {
				v := verts[sv]
				if sv == 0 && c != plan.RootComp {
					merged[r][anchors[c].Lead] += bits
					continue
				}
				merged[r][v] += bits
			}
		}
	}
	res.Accepted = accepted
	res.ProofSizeBits = merged.Max()
	return res, nil
}
