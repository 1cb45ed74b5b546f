package planar

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// ErrNotPlanar is returned by Embed when the input graph is not planar.
var ErrNotPlanar = errors.New("planar: graph is not planar")

// IsPlanar reports whether the connected graph g is planar.
func IsPlanar(g *graph.Graph) bool {
	_, err := Embed(g)
	return err == nil
}

// Embed computes a planar combinatorial embedding (rotation system) of the
// connected graph g using the Demoucron–Malgrange–Pertuiset algorithm run
// per biconnected component, with block rotations spliced at cut vertices.
// It returns ErrNotPlanar if no embedding exists.
func Embed(g *graph.Graph) (*Rotation, error) {
	n := g.N()
	if !g.IsConnected() {
		return nil, errors.New("planar: Embed requires a connected graph")
	}
	if n >= 3 && g.M() > 3*n-6 {
		return nil, ErrNotPlanar
	}
	rot := make([][]int, n)
	if g.M() == 0 {
		return NewRotation(g, rot)
	}

	dec := graph.Biconnected(g)
	for ci := range dec.Components {
		comp := dec.Components[ci]
		if len(comp) == 1 {
			// Bridge: trivial rotation contribution.
			e := comp[0]
			rot[e.U] = append(rot[e.U], e.V)
			rot[e.V] = append(rot[e.V], e.U)
			continue
		}
		sub, orig := dec.Block(ci)
		blockRot, err := dmpBiconnected(sub)
		if err != nil {
			return nil, err
		}
		// Splice the block's rotation of each vertex as a contiguous
		// segment into the global rotation: blocks can always be nested
		// inside a face around their shared cut vertex.
		for lv, cyc := range blockRot {
			v := orig[lv]
			for _, lu := range cyc {
				rot[v] = append(rot[v], orig[lu])
			}
		}
	}
	r, err := NewRotation(g, rot)
	if err != nil {
		return nil, fmt.Errorf("planar: internal rotation assembly: %w", err)
	}
	if !r.IsPlanarEmbedding(g) {
		return nil, fmt.Errorf("planar: internal error: assembled rotation fails Euler check")
	}
	return r, nil
}

// dmpBiconnected embeds a biconnected graph with >= 3 vertices, returning
// the rotation (as raw neighbor orders) or ErrNotPlanar.
func dmpBiconnected(g *graph.Graph) ([][]int, error) {
	n := g.N()
	if n >= 3 && g.M() > 3*n-6 {
		return nil, ErrNotPlanar
	}

	// Embedded state.
	inH := make([]bool, n)        // vertex embedded
	edgeIn := make([]bool, g.M()) // edge embedded
	var faces [][]int             // each face: simple vertex cycle, oriented

	// Initial cycle via DFS back edge.
	cyc := findCycle(g)
	if cyc == nil {
		return nil, errors.New("planar: biconnected component without cycle")
	}
	for _, v := range cyc {
		inH[v] = true
	}
	for i := range cyc {
		u, v := cyc[i], cyc[(i+1)%len(cyc)]
		edgeIn[g.EdgeID(u, v)] = true
	}
	rev := make([]int, len(cyc))
	for i, v := range cyc {
		rev[len(cyc)-1-i] = v
	}
	faces = append(faces, append([]int(nil), cyc...), rev)

	remaining := g.M() - len(cyc)
	for remaining > 0 {
		frags := fragments(g, inH, edgeIn)
		if len(frags) == 0 {
			return nil, errors.New("planar: internal error: edges remain but no fragments")
		}
		// Admissible faces per fragment.
		chosen := -1
		chosenFace := -1
		for fi, fr := range frags {
			var admissible []int
			for j, face := range faces {
				if containsAll(face, fr.attach) {
					admissible = append(admissible, j)
				}
			}
			if len(admissible) == 0 {
				return nil, ErrNotPlanar
			}
			if len(admissible) == 1 {
				chosen, chosenFace = fi, admissible[0]
				break
			}
			if chosen == -1 {
				chosen, chosenFace = fi, admissible[0]
			}
		}
		fr := frags[chosen]
		path := fragmentPath(g, fr, inH)
		if len(path) < 2 {
			return nil, errors.New("planar: internal error: degenerate fragment path")
		}
		faces = splitFace(faces, chosenFace, path)
		for _, v := range path {
			inH[v] = true
		}
		for i := 0; i+1 < len(path); i++ {
			edgeIn[g.EdgeID(path[i], path[i+1])] = true
			remaining--
		}
	}

	return rotationFromFaces(g, faces)
}

// fragment is a bridge of G relative to the embedded subgraph H: either a
// single non-embedded edge between embedded vertices, or a connected
// component of G - V(H) together with its attachment edges.
type fragment struct {
	attach []int // embedded attachment vertices (sorted, deduplicated)
	// For edge fragments, interior is nil and attach has the two endpoints.
	interior []int // non-embedded vertices of the fragment
}

func fragments(g *graph.Graph, inH []bool, edgeIn []bool) []fragment {
	var frags []fragment
	// Edge fragments.
	for id, e := range g.Edges() {
		if !edgeIn[id] && inH[e.U] && inH[e.V] {
			frags = append(frags, fragment{attach: []int{e.U, e.V}})
		}
	}
	// Component fragments.
	n := g.N()
	seen := make([]bool, n)
	for s := 0; s < n; s++ {
		if inH[s] || seen[s] {
			continue
		}
		var comp []int
		attach := map[int]bool{}
		queue := []int{s}
		seen[s] = true
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			comp = append(comp, v)
			for _, u := range g.Neighbors(v) {
				if inH[u] {
					attach[u] = true
				} else if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		as := make([]int, 0, len(attach))
		for a := range attach {
			as = append(as, a)
		}
		sort.Ints(as)
		frags = append(frags, fragment{attach: as, interior: comp})
	}
	return frags
}

func containsAll(face []int, attach []int) bool {
	set := make(map[int]bool, len(face))
	for _, v := range face {
		set[v] = true
	}
	for _, a := range attach {
		if !set[a] {
			return false
		}
	}
	return true
}

// fragmentPath returns a path a, x1..xk, b through the fragment between two
// distinct attachment vertices, with all interior vertices non-embedded.
func fragmentPath(g *graph.Graph, fr fragment, inH []bool) []int {
	if fr.interior == nil {
		return []int{fr.attach[0], fr.attach[1]}
	}
	inFrag := make(map[int]bool, len(fr.interior))
	for _, v := range fr.interior {
		inFrag[v] = true
	}
	a := fr.attach[0]
	// BFS from a through fragment interior to any other attachment.
	prev := map[int]int{a: -1}
	queue := []int{a}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range g.Neighbors(v) {
			if _, ok := prev[u]; ok {
				continue
			}
			if v == a && !inFrag[u] {
				continue // leave a only into the fragment
			}
			if inH[u] {
				if u != a && v != a {
					// reached another attachment through the interior
					prev[u] = v
					return tracePath(prev, u)
				}
				continue
			}
			if !inFrag[u] {
				continue
			}
			prev[u] = v
			queue = append(queue, u)
		}
	}
	// Fragment is a single edge a-b with interior? Should not happen for
	// biconnected graphs (every fragment has >= 2 attachments).
	panic("planar: fragment with a single reachable attachment")
}

func tracePath(prev map[int]int, end int) []int {
	var revPath []int
	for v := end; v != -1; v = prev[v] {
		revPath = append(revPath, v)
	}
	path := make([]int, len(revPath))
	for i, v := range revPath {
		path[len(revPath)-1-i] = v
	}
	return path
}

// splitFace replaces faces[fi] (a simple vertex cycle containing path[0]
// and path[len-1]) with the two faces obtained by drawing the path across
// it, preserving orientation.
func splitFace(faces [][]int, fi int, path []int) [][]int {
	face := faces[fi]
	a, b := path[0], path[len(path)-1]
	ia, ib := indexOf(face, a), indexOf(face, b)
	if ia < 0 || ib < 0 {
		panic("planar: path endpoints not on chosen face")
	}
	k := len(face)
	// arc1: a -> ... -> b following face orientation; arc2: b -> ... -> a.
	var arc1, arc2 []int
	for i := ia; ; i = (i + 1) % k {
		arc1 = append(arc1, face[i])
		if i == ib {
			break
		}
	}
	for i := ib; ; i = (i + 1) % k {
		arc2 = append(arc2, face[i])
		if i == ia {
			break
		}
	}
	interior := path[1 : len(path)-1]
	// newFace1 = arc1 (a..b) then path interior reversed (b -> a direction).
	nf1 := append([]int(nil), arc1...)
	for i := len(interior) - 1; i >= 0; i-- {
		nf1 = append(nf1, interior[i])
	}
	// newFace2 = arc2 (b..a) then path interior forward (a -> b direction).
	nf2 := append([]int(nil), arc2...)
	nf2 = append(nf2, interior...)

	out := make([][]int, 0, len(faces)+1)
	out = append(out, faces[:fi]...)
	out = append(out, faces[fi+1:]...)
	out = append(out, nf1, nf2)
	return out
}

func indexOf(s []int, x int) int {
	for i, v := range s {
		if v == x {
			return i
		}
	}
	return -1
}

// findCycle returns some simple cycle of g as a vertex list, or nil.
func findCycle(g *graph.Graph) []int {
	n := g.N()
	parent := make([]int, n)
	state := make([]int, n) // 0 unseen, 1 active, 2 done
	for v := range parent {
		parent[v] = -1
	}
	for s := 0; s < n; s++ {
		if state[s] != 0 {
			continue
		}
		type frame struct{ v, ni int }
		stack := []frame{{s, 0}}
		state[s] = 1
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			v := top.v
			if top.ni < len(g.Neighbors(v)) {
				u := g.Neighbors(v)[top.ni]
				top.ni++
				if u == parent[v] {
					continue
				}
				if state[u] == 1 {
					// back edge v -> u: cycle u ... v
					var cyc []int
					for x := v; x != u; x = parent[x] {
						cyc = append(cyc, x)
					}
					cyc = append(cyc, u)
					return cyc
				}
				if state[u] == 0 {
					state[u] = 1
					parent[u] = v
					stack = append(stack, frame{u, 0})
				}
				continue
			}
			state[v] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// rotationFromFaces reconstructs the rotation system from a complete set
// of oriented faces: in the face traversal convention, arriving at v from
// u continues to Next(v,u), so each face step (u,v),(v,w) fixes
// Next(v,u)=w. The resulting successor map at each vertex must be a single
// cycle over its neighbors.
func rotationFromFaces(g *graph.Graph, faces [][]int) ([][]int, error) {
	n := g.N()
	next := make([]map[int]int, n)
	for v := range next {
		next[v] = make(map[int]int, g.Degree(v))
	}
	for _, face := range faces {
		k := len(face)
		for i := 0; i < k; i++ {
			u := face[i]
			v := face[(i+1)%k]
			w := face[(i+2)%k]
			if old, dup := next[v][u]; dup && old != w {
				return nil, fmt.Errorf("planar: inconsistent face system at vertex %d", v)
			}
			next[v][u] = w
		}
	}
	rot := make([][]int, n)
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		if deg == 0 {
			continue
		}
		start := g.Neighbors(v)[0]
		cyc := []int{start}
		for u := next[v][start]; u != start; u = next[v][u] {
			cyc = append(cyc, u)
			if len(cyc) > deg {
				return nil, fmt.Errorf("planar: successor map at vertex %d is not a single cycle", v)
			}
		}
		if len(cyc) != deg {
			return nil, fmt.Errorf("planar: rotation at vertex %d covers %d of %d neighbors", v, len(cyc), deg)
		}
		rot[v] = cyc
	}
	return rot, nil
}
