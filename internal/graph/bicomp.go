package graph

import "sort"

// BiconnectedDecomposition is the result of Tarjan's biconnected-components
// algorithm plus the derived block-cut tree used by the outerplanarity and
// treewidth-2 protocols (paper §6, §8).
type BiconnectedDecomposition struct {
	// Components[i] lists the edges of the i-th biconnected component.
	Components [][]Edge
	// Vertices[i] lists the (sorted, deduplicated) vertices of component i.
	Vertices [][]int
	// IsCut[v] reports whether v is a cut vertex (belongs to >1 component).
	IsCut []bool
	// CompOf[e] maps an edge (by EdgeID in the host graph) to its component.
	CompOf []int
}

// Block returns biconnected component c as a graph on Vertices[c]
// (vertex i standing for Vertices[c][i]) with exactly the edges of
// Components[c], inserted in that order, plus the index mapping, which
// is Vertices[c] itself and must not be modified. Local indices come
// from a binary search of the sorted vertex list, so the cost is
// O(|C| log |C|) however large the host graph.
func (d *BiconnectedDecomposition) Block(c int) (*Graph, []int) {
	verts := d.Vertices[c]
	h := NewSized(len(verts), len(d.Components[c]))
	for _, e := range d.Components[c] {
		h.mustAddEdge(sort.SearchInts(verts, e.U), sort.SearchInts(verts, e.V))
	}
	return h, verts
}

// Biconnected computes the biconnected components of g via Tarjan's
// low-link algorithm (iterative, so deep graphs do not overflow the stack).
func Biconnected(g *Graph) *BiconnectedDecomposition {
	n := g.N()
	d := &BiconnectedDecomposition{
		IsCut:  make([]bool, n),
		CompOf: make([]int, g.M()),
	}
	for i := range d.CompOf {
		d.CompOf[i] = -1
	}

	num := make([]int, n)
	low := make([]int, n)
	for v := range num {
		num[v] = -1
	}
	var (
		counter   int
		edgeStack []Edge
	)

	type frame struct {
		v, parentEdge, ni int
	}

	popComponent := func(until Edge) {
		var comp []Edge
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			comp = append(comp, e)
			if e == until {
				break
			}
		}
		ci := len(d.Components)
		vs := map[int]bool{}
		for _, e := range comp {
			d.CompOf[g.EdgeID(e.U, e.V)] = ci
			vs[e.U] = true
			vs[e.V] = true
		}
		verts := make([]int, 0, len(vs))
		for v := range vs {
			verts = append(verts, v)
		}
		sort.Ints(verts)
		d.Components = append(d.Components, comp)
		d.Vertices = append(d.Vertices, verts)
	}

	for start := 0; start < n; start++ {
		if num[start] != -1 {
			continue
		}
		num[start] = counter
		low[start] = counter
		counter++
		stack := []frame{{v: start, parentEdge: -1}}
		rootChildren := 0
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			v := top.v
			if top.ni < len(g.Neighbors(v)) {
				u := g.Neighbors(v)[top.ni]
				top.ni++
				eid := g.EdgeID(v, u)
				if eid == top.parentEdge {
					continue
				}
				if num[u] == -1 {
					edgeStack = append(edgeStack, Canon(v, u))
					num[u] = counter
					low[u] = counter
					counter++
					if v == start {
						rootChildren++
					}
					stack = append(stack, frame{v: u, parentEdge: eid})
				} else if num[u] < num[v] {
					edgeStack = append(edgeStack, Canon(v, u))
					if num[u] < low[v] {
						low[v] = num[u]
					}
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := stack[len(stack)-1].v
			if low[v] < low[p] {
				low[p] = low[v]
			}
			if low[v] >= num[p] {
				// p separates v's subtree: pop one component.
				if p != start || rootChildren > 1 || len(stack) > 1 {
					// cut detection handled below via component membership
				}
				popComponent(Canon(p, v))
			}
		}
	}

	// A vertex is a cut vertex iff it appears in more than one component.
	compCount := make([]int, n)
	for _, verts := range d.Vertices {
		for _, v := range verts {
			compCount[v]++
		}
	}
	for v := 0; v < n; v++ {
		d.IsCut[v] = compCount[v] > 1
	}
	return d
}

// BlockCutTree is the bipartite tree whose nodes are biconnected components
// ("blocks") and cut vertices. It is rooted at a block.
type BlockCutTree struct {
	Decomp *BiconnectedDecomposition
	// RootBlock is the index of the root component.
	RootBlock int
	// ParentCut[c] is the cut vertex separating block c from its parent
	// block (the "C-separating node" of the paper), or -1 for the root.
	ParentCut []int
	// BlockDepth[c] is the distance (in blocks) from the root block.
	BlockDepth []int
	// ChildBlocks[c] lists child blocks of block c.
	ChildBlocks [][]int
	// Order lists every block root-first, breadth-first through
	// ChildBlocks, so each block comes after its parent.
	Order []int
}

// NewBlockCutTree roots the block-cut structure of g at the block
// containing vertex rootHint (any block containing it). g must be
// connected and have at least one edge.
func NewBlockCutTree(g *Graph, rootHint int) *BlockCutTree {
	d := Biconnected(g)
	nb := len(d.Components)
	t := &BlockCutTree{
		Decomp:      d,
		ParentCut:   make([]int, nb),
		BlockDepth:  make([]int, nb),
		ChildBlocks: make([][]int, nb),
	}
	for i := range t.ParentCut {
		t.ParentCut[i] = -1
		t.BlockDepth[i] = -1
	}
	// blocksOf[v] = blocks containing v.
	blocksOf := make([][]int, g.N())
	for ci, verts := range d.Vertices {
		for _, v := range verts {
			blocksOf[v] = append(blocksOf[v], ci)
		}
	}
	root := -1
	for _, c := range blocksOf[rootHint] {
		root = c
		break
	}
	if root == -1 {
		root = 0
	}
	t.RootBlock = root
	t.BlockDepth[root] = 0
	// BFS over blocks through shared cut vertices.
	queue := []int{root}
	visitedCut := make([]bool, g.N())
	for i := 0; i < len(queue); i++ {
		c := queue[i]
		for _, v := range d.Vertices[c] {
			if !d.IsCut[v] || visitedCut[v] {
				continue
			}
			visitedCut[v] = true
			for _, c2 := range blocksOf[v] {
				if t.BlockDepth[c2] != -1 {
					continue
				}
				t.BlockDepth[c2] = t.BlockDepth[c] + 1
				t.ParentCut[c2] = v
				t.ChildBlocks[c] = append(t.ChildBlocks[c], c2)
				queue = append(queue, c2)
			}
		}
	}
	t.Order = queue
	return t
}
