package graph

import (
	"cmp"
	"slices"
)

// InducedParts holds the subgraphs of one graph induced by several
// vertex lists ("parts"), computed in a single pass over the graph's
// edges. The composite protocols cut a graph into one part per
// biconnected block and run a sub-protocol on each; scanning every edge
// once per part would cost O(parts·M), which dominates their run time
// on graphs with many blocks. Here the cost is O(n + M + Σ|part|), with
// a logarithm in the number of parts meeting at one vertex on each edge.
//
// Part i's graph has len(parts[i]) vertices, vertex j standing for
// parts[i][j]. Its edges are the edges of g with both endpoints in the
// part, inserted in g's edge order, so edge ids and port order are what
// an AddEdge loop over g.Edges() produces. A vertex listed twice in a
// part maps to its last position (the earlier one stays isolated);
// entries outside [0, g.N()) become isolated vertices. Parts may
// overlap.
type InducedParts struct {
	parts [][]int
	// edges[i] lists part i's local edges as endpoint pairs, in g's
	// edge order.
	edges [][]int32
}

// member records that a vertex sits at local index idx of part part.
type member struct{ part, idx int32 }

// InducedParts computes the subgraphs induced by parts. Each part's
// graph is materialized only by Graph, so a caller that runs parts one
// at a time holds one part graph at a time.
func (g *Graph) InducedParts(parts [][]int) *InducedParts {
	// mem[v] lists v's memberships, ascending by part because parts are
	// visited in order; a vertex repeated within a part updates its
	// membership in place, so the last position wins.
	mem := make([][]member, g.n)
	for i, verts := range parts {
		for j, v := range verts {
			if v < 0 || v >= g.n {
				continue
			}
			if m := mem[v]; len(m) > 0 && m[len(m)-1].part == int32(i) {
				m[len(m)-1].idx = int32(j)
				continue
			}
			mem[v] = append(mem[v], member{part: int32(i), idx: int32(j)})
		}
	}
	// One pass over the edges: an edge lies in every part both of its
	// endpoints belong to. Walk the shorter membership list and
	// binary-search the longer one, whose window only shrinks because
	// both ascend by part.
	ip := &InducedParts{parts: parts, edges: make([][]int32, len(parts))}
	byPart := func(m member, p int32) int { return cmp.Compare(m.part, p) }
	for _, e := range g.edges {
		mu, mv := mem[e.U], mem[e.V]
		swapped := len(mu) > len(mv)
		if swapped {
			mu, mv = mv, mu
		}
		for _, a := range mu {
			k, found := slices.BinarySearchFunc(mv, a.part, byPart)
			mv = mv[k:]
			if !found {
				continue
			}
			iu, iv := a.idx, mv[0].idx
			if swapped {
				iu, iv = iv, iu
			}
			ip.edges[a.part] = append(ip.edges[a.part], iu, iv)
		}
	}
	return ip
}

// Graph builds part i's induced subgraph. Each call returns a fresh,
// unsealed graph.
func (ip *InducedParts) Graph(i int) *Graph {
	pairs := ip.edges[i]
	h := NewSized(len(ip.parts[i]), len(pairs)/2)
	for k := 0; k < len(pairs); k += 2 {
		h.mustAddEdge(int(pairs[k]), int(pairs[k+1]))
	}
	return h
}
