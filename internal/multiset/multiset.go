// Package multiset implements the multiset-equality DIP of Lemma 2.6:
// given a rooted spanning tree, two distributed multisets S1, S2 of size
// at most K over a universe of size K^c are compared in 2 interaction
// rounds with proof size O(log K) and soundness error at most K/p for the
// protocol's prime p > K^(c+1).
//
// The construction follows the paper exactly: the root samples a random
// point z in F_p; the prover labels every node with z and with the
// partial evaluations of the multiset polynomials
//
//	phi_S(z) = prod_{s in S} (s - z)  over F_p
//
// aggregated over the node's subtree; each node re-checks its own factor
// against its children's labels, and the root compares the two totals.
package multiset

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/field"
)

// Params fixes the multiset size bound K and the universe exponent c.
type Params struct {
	K int
	C int
	F field.Fp
}

// NewParams computes the field for size bound k and exponent c >= 1
// (universe [k^c], prime p > k^(c+1)).
func NewParams(k, c int) (Params, error) {
	if k < 1 || c < 1 {
		return Params{}, fmt.Errorf("multiset: invalid params k=%d c=%d", k, c)
	}
	lower := uint64(1)
	for i := 0; i < c+1; i++ {
		lower *= uint64(k)
		if lower >= field.MaxPrime {
			return Params{}, fmt.Errorf("multiset: k^(c+1) exceeds field range")
		}
	}
	f, err := field.New(lower)
	if err != nil {
		return Params{}, err
	}
	return Params{K: k, C: c, F: f}, nil
}

// PointBits is the width of an encoded field element.
func (p Params) PointBits() int { return bitio.BitsFor(int(p.F.P)) }

// Label is the prover's per-node response: the echoed evaluation point
// and the two subtree-aggregated polynomial evaluations.
type Label struct {
	Z    uint64
	Phi1 uint64
	Phi2 uint64
}

func (l Label) write(w *bitio.Writer, p Params) {
	b := p.PointBits()
	w.WriteUint(l.Z, b)
	w.WriteUint(l.Phi1, b)
	w.WriteUint(l.Phi2, b)
}

func (l *Label) read(r *bitio.Reader, p Params) {
	b := p.PointBits()
	l.Z = r.ReadUint(b)
	l.Phi1 = r.ReadUint(b)
	l.Phi2 = r.ReadUint(b)
}

// Encode writes the label (3 field elements).
func (l Label) Encode(p Params) bitio.String {
	var w bitio.Writer
	l.write(&w, p)
	return w.String()
}

// DecodeLabel parses a label.
func DecodeLabel(s bitio.String, p Params) (Label, error) {
	return bitio.Decode(s, p, (*Label).read)
}

// SamplePoint draws the root's random evaluation point.
func (p Params) SamplePoint(rng *rand.Rand) uint64 {
	return uint64(rng.Int63n(int64(p.F.P)))
}

// HonestLabels aggregates the polynomial evaluations bottom-up over the
// rooted tree given by parent pointers (parent[root] = -1).
func HonestLabels(p Params, parent []int, s1, s2 [][]uint64, z uint64) ([]Label, error) {
	n := len(parent)
	labels := make([]Label, n)
	for v := 0; v < n; v++ {
		labels[v] = Label{
			Z:    z,
			Phi1: p.F.MultisetEval(s1[v], z),
			Phi2: p.F.MultisetEval(s2[v], z),
		}
	}
	// Process vertices in decreasing depth so children are folded into
	// parents exactly once.
	order, err := topoByDepth(parent)
	if err != nil {
		return nil, err
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if parent[v] == -1 {
			continue
		}
		pv := parent[v]
		labels[pv].Phi1 = p.F.Mul(labels[pv].Phi1, labels[v].Phi1)
		labels[pv].Phi2 = p.F.Mul(labels[pv].Phi2, labels[v].Phi2)
	}
	return labels, nil
}

// topoByDepth orders vertices root-first; errors on parent cycles.
func topoByDepth(parent []int) ([]int, error) {
	n := len(parent)
	depth := make([]int, n)
	for v := range depth {
		depth[v] = -1
	}
	var stack []int
	for v := 0; v < n; v++ {
		u := v
		for depth[u] == -1 && parent[u] != -1 {
			stack = append(stack, u)
			u = parent[u]
			if len(stack) > n {
				return nil, fmt.Errorf("multiset: parent cycle near %d", v)
			}
		}
		if depth[u] == -1 {
			depth[u] = 0
		}
		d := depth[u]
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			d++
			depth[w] = d
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// counting sort by depth
	maxD := 0
	for _, d := range depth {
		if d > maxD {
			maxD = d
		}
	}
	buckets := make([][]int, maxD+1)
	for v, d := range depth {
		buckets[d] = append(buckets[d], v)
	}
	order = order[:0]
	for _, b := range buckets {
		order = append(order, b...)
	}
	return order, nil
}

// CheckNode verifies a node's local aggregation constraint: its label
// must equal its own factor times the product of its children's labels,
// and the evaluation point must match the parent's (the root checks it
// against its own coin and compares the two totals).
func CheckNode(p Params, isRoot bool, sampledZ uint64, s1, s2 []uint64, own Label, parent *Label, children []Label) bool {
	if isRoot {
		if own.Z != sampledZ {
			return false
		}
		if own.Phi1 != own.Phi2 {
			return false
		}
	} else {
		if parent == nil || own.Z != parent.Z {
			return false
		}
	}
	w1 := p.F.MultisetEval(s1, own.Z)
	w2 := p.F.MultisetEval(s2, own.Z)
	for _, c := range children {
		if c.Z != own.Z {
			return false
		}
		w1 = p.F.Mul(w1, c.Phi1)
		w2 = p.F.Mul(w2, c.Phi2)
	}
	return own.Phi1 == w1 && own.Phi2 == w2
}
