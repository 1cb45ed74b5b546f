// Package outerplanar implements the outerplanarity DIP of Theorem 1.3.
//
// The protocol decomposes the graph into its biconnected components
// (block–cut tree rooted at a component R), commits the component
// structure with constant-size labels, and runs the path-outerplanarity
// protocol of Theorem 1.2 inside every component in parallel:
//
//   - stage 1 commits, for every component C, the sub-path P'_C (the
//     Hamiltonian path of C minus its separating node) and the connecting
//     edge e_C via the forest code, plus cut/leader flags; random strings
//     sep(.) and lead(.) sampled by cut nodes and leaders isolate the
//     components (a non-cut node must not have edges leaving its
//     component);
//   - stage 2 verifies that the union of the P_C paths is a spanning tree
//     (Lemma 2.5, amplified);
//   - stage 3 runs biconnected-outerplanarity (Theorem 6.1 =
//     path-outerplanarity plus an endpoint edge) inside each component,
//     with the separating node's labels deferred to its component
//     neighbors so that cut vertices carry O(log log n) bits total.
//
// Stages 1 and 2 are the block–cut stage of internal/blockcut, shared
// with the treewidth-2 protocol; this package adds the two path-only
// conditions (at most one home-path child per node, and the last node of
// every home path adjacent to its separating node).
//
// The per-component executions run on derived sub-instances; their label
// bits are merged back onto the real nodes under the paper's deferral
// accounting (see DESIGN.md §4, implementation notes).
package outerplanar

import (
	"errors"
	"fmt"

	"repro/internal/blockcut"
	"repro/internal/graph"
	"repro/internal/planar"
)

// Plan is the prover's decomposition witness: one Hamiltonian path per
// biconnected component, starting at the component's separating node.
type Plan struct {
	// Witness is what the block–cut structural stage commits: F is the
	// union of the P_C, Home[v] is the component whose P'_C contains v
	// (every vertex belongs to exactly one), and Root is the first node
	// of the root component's path.
	blockcut.Witness
	// Paths[c] lists component c's path P_C; Paths[c][0] is the
	// separating node (or the R-leader's predecessor-free start for the
	// root component).
	Paths [][]int
}

// anchors gives every component's structural anchors: its separating
// node and the leader that follows it on P_C.
func (p *Plan) anchors() []blockcut.Anchor {
	a := make([]blockcut.Anchor, len(p.Paths))
	for c, path := range p.Paths {
		if len(path) >= 2 {
			a[c] = blockcut.Anchor{Sep: path[0], Lead: path[1]}
		}
	}
	return a
}

// HonestPlan computes the decomposition for an outerplanar graph using
// the centralized oracles (the prover sees the whole instance). It fails
// when some biconnected component is not outerplanar — i.e., on
// no-instances, where a cheating prover must craft its own Plan.
func HonestPlan(g *graph.Graph) (*Plan, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("outerplanar: need n >= 2")
	}
	if !g.IsConnected() {
		return nil, errors.New("outerplanar: need a connected graph")
	}
	bct := graph.NewBlockCutTree(g, 0)
	dec := bct.Decomp
	p := &Plan{Witness: blockcut.NewWitness(dec.IsCut), Paths: make([][]int, len(dec.Components))}

	// Process blocks root-first so each separating vertex's home is fixed
	// by its parent block before child blocks reference it.
	for _, c := range bct.Order {
		sep := bct.ParentCut[c]
		if c == bct.RootBlock {
			sep = dec.Vertices[c][0]
		}
		path, err := componentPath(dec, c, sep)
		if err != nil {
			return nil, fmt.Errorf("outerplanar: component %d: %w", c, err)
		}
		p.Paths[c] = path
		if c == bct.RootBlock {
			// The root component's "leader" is its own first node; the
			// second node is an ordinary path member.
			p.SetRoot(path[0], c)
		} else {
			p.IsLeader[path[1]] = true
		}
		for i := 1; i < len(path); i++ {
			p.Home[path[i]] = c
			p.ParentF[path[i]] = path[i-1]
		}
	}
	if err := p.Covered(); err != nil {
		return nil, fmt.Errorf("outerplanar: %w", err)
	}
	return p, nil
}

// componentPath returns a Hamiltonian path of component c starting at
// sep, such that the non-path edges nest above it (a Hamiltonian cycle of
// the biconnected outerplanar component, broken at sep).
func componentPath(dec *graph.BiconnectedDecomposition, c, sep int) ([]int, error) {
	if verts := dec.Vertices[c]; len(verts) == 2 {
		other := verts[0]
		if other == sep {
			other = verts[1]
		}
		return []int{sep, other}, nil
	}
	sub, orig := dec.Block(c)
	cyc, err := planar.HamiltonianCycleOuterplanar(sub)
	if err != nil {
		return nil, err
	}
	// Rotate so sep comes first.
	sepLocal := -1
	for i, lv := range cyc {
		if orig[lv] == sep {
			sepLocal = i
			break
		}
	}
	if sepLocal == -1 {
		return nil, errors.New("outerplanar: separating node missing from cycle")
	}
	path := make([]int, len(cyc))
	for i := range cyc {
		path[i] = orig[cyc[(sepLocal+i)%len(cyc)]]
	}
	return path, nil
}

// Components prepares every component's sub-instance with one pass over
// g's edges and returns a function that builds component c's: the
// subgraph induced by Paths[c], with sub vertex i standing for
// Paths[c][i] (index 0 is the separating node) at path position i. The
// composite runner builds each one just before its sub-run.
func (p *Plan) Components(g *graph.Graph) func(c int) SubInstance {
	parts := g.InducedParts(p.Paths)
	return func(c int) SubInstance {
		path := p.Paths[c]
		pos := make([]int, len(path))
		for i := range path {
			pos[i] = i
		}
		return SubInstance{G: parts.Graph(c), Pos: pos, Orig: path}
	}
}

// SubInstance is one component's derived path-outerplanarity instance.
type SubInstance struct {
	G    *graph.Graph
	Pos  []int
	Orig []int // Orig[i] = real vertex behind sub vertex i; Orig[0] = sep
}
