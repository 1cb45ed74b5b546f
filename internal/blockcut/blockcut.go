// Package blockcut implements the block–cut structural stage shared by
// the outerplanarity DIP (Theorem 1.3) and the treewidth-at-most-2 DIP
// (Theorem 1.7 via Lemma 8.2).
//
// The prover roots the block–cut tree and commits a spanning forest F
// made of one tree per block, each hanging off the block's separating
// vertex through the block's leader:
//
//   - round 1 commits F with the forest code (Lemma 2.3) plus a cut flag
//     and a leader flag per node;
//   - the verifier draws, per node, a random string s_v of L bits and the
//     coins of the amplified spanning-tree check (Lemma 2.5);
//   - round 2 echoes s_v, the strings of the node's block anchors (sep:
//     the separating vertex, lead: the leader) and the spanning-tree sums.
//
// Every node checks the forest code, its echo, the spanning-tree sums,
// that its cut flag matches having leader children, that the root anchors
// both strings to itself, that a leader hangs off a cut vertex whose
// string it takes as sep, that other nodes copy sep and lead from their
// parent, and that a non-cut node has no edge leaving its block. A caller
// may add its own conditions on the labels the stage decoded (Check).
package blockcut

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
	"repro/internal/spantree"
)

// Params configures the stage: string length L (Theta(log log n) bits)
// and the amplified spanning-tree check.
type Params struct {
	L  int
	ST spantree.Params
}

// NewParams derives the stage parameters from n.
func NewParams(n int) Params {
	l := 3 * bitio.BitsFor(bitio.BitsFor(n)+1)
	if l < 8 {
		l = 8
	}
	if l > 63 {
		l = 63
	}
	return Params{L: l, ST: spantree.Params{Reps: l, IDBits: l}}
}

// Witness is the block–cut decomposition the prover commits.
type Witness struct {
	// ParentF[v] is v's parent in the forest F (-1 at the root).
	ParentF []int
	// Home[v] is the block whose anchors v echoes.
	Home []int
	// Root is F's root, the first node of the root block; it anchors both
	// of that block's strings to itself.
	Root int
	// RootComp indexes the root block.
	RootComp int
	// IsCut/IsLeader flag cut vertices and block leaders.
	IsCut, IsLeader []bool
}

// NewWitness starts a witness with the cut flags isCut, one per node:
// no node has a parent in F (-2) or a home block (-1) yet, and none is a
// leader.
func NewWitness(isCut []bool) Witness {
	n := len(isCut)
	w := Witness{
		ParentF:  make([]int, n),
		Home:     make([]int, n),
		IsCut:    append([]bool(nil), isCut...),
		IsLeader: make([]bool, n),
	}
	for v := range w.ParentF {
		w.ParentF[v] = -2
		w.Home[v] = -1
	}
	return w
}

// SetRoot makes v, the first node of the root block c, the root of F; it
// is the leader of its own block.
func (w *Witness) SetRoot(v, c int) {
	w.Root, w.RootComp = v, c
	w.Home[v] = c
	w.ParentF[v] = -1
	w.IsLeader[v] = true
}

// Covered fails if some node has no parent in F or no home block.
func (w *Witness) Covered() error {
	for v := range w.ParentF {
		if w.ParentF[v] == -2 || w.Home[v] == -1 {
			return fmt.Errorf("blockcut: vertex %d not covered by the decomposition", v)
		}
	}
	return nil
}

// Anchor names a block's separating vertex and leader, whose strings
// every node of the block echoes as sep and lead.
type Anchor struct {
	Sep, Lead int
}

// R1 is the first label: forest code of F plus flags.
type R1 struct {
	FC     forestcode.Label
	Cut    bool
	Leader bool
}

func (l R1) write(w *bitio.Writer, _ Params) {
	l.FC.Write(w)
	w.WriteBool(l.Cut)
	w.WriteBool(l.Leader)
}

func (l *R1) read(r *bitio.Reader, _ Params) {
	l.FC.Read(r)
	l.Cut = r.ReadBool()
	l.Leader = r.ReadBool()
}

// Coin is a node's randomness: its string s_v plus the spanning-tree
// coins.
type Coin struct {
	S  uint64
	ST spantree.Coin
}

func (c Coin) write(w *bitio.Writer, p Params) {
	w.WriteUint(c.S, p.L)
	c.ST.Write(w, p.ST)
}

func (c *Coin) read(r *bitio.Reader, p Params) {
	c.S = r.ReadUint(p.L)
	c.ST.Read(r, p.ST)
}

// R2 is the second label: the node's own echoed string, its block's sep
// and lead strings, and the spanning-tree sums.
type R2 struct {
	Self uint64
	Sep  uint64
	Lead uint64
	ST   spantree.Sum
}

func (l R2) write(w *bitio.Writer, p Params) {
	w.WriteUint(l.Self, p.L)
	w.WriteUint(l.Sep, p.L)
	w.WriteUint(l.Lead, p.L)
	l.ST.Write(w, p.ST)
}

func (l *R2) read(r *bitio.Reader, p Params) {
	l.Self = r.ReadUint(p.L)
	l.Sep = r.ReadUint(p.L)
	l.Lead = r.ReadUint(p.L)
	l.ST.Read(r, p.ST)
}

// prover is the honest prover of the stage for a witness.
type prover struct {
	name    string
	p       Params
	g       *graph.Graph
	w       *Witness
	anchors []Anchor
}

func (pr *prover) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := pr.g
	switch round {
	case 0:
		fc, err := forestcode.EncodeForest(g, pr.w.ParentF)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(g)
		for v := 0; v < g.N(); v++ {
			var w bitio.Writer
			R1{FC: fc[v], Cut: pr.w.IsCut[v], Leader: pr.w.IsLeader[v]}.write(&w, pr.p)
			a.Node[v] = w.String()
		}
		return a, nil
	case 1:
		n := g.N()
		cs := make([]Coin, n)
		for v := 0; v < n; v++ {
			c, err := bitio.Decode(coins[0][v], pr.p, (*Coin).read)
			if err != nil {
				return nil, err
			}
			cs[v] = c
		}
		stCoins := make([]spantree.Coin, n)
		for v := range stCoins {
			stCoins[v] = cs[v].ST
		}
		sums, err := spantree.HonestSums(pr.w.ParentF, stCoins)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(g)
		for v := 0; v < n; v++ {
			anc := Anchor{Sep: pr.w.Root, Lead: pr.w.Root}
			if c := pr.w.Home[v]; c != pr.w.RootComp {
				anc = pr.anchors[c]
			}
			var w bitio.Writer
			R2{Self: cs[v].S, Sep: cs[anc.Sep].S, Lead: cs[anc.Lead].S, ST: sums[v]}.write(&w, pr.p)
			a.Node[v] = w.String()
		}
		return a, nil
	}
	return nil, fmt.Errorf("%s: unexpected structural round %d", pr.name, round)
}

// Node is what one node's verifier decoded in the stage: its own labels,
// its place in F, and its neighbours' labels by port.
type Node struct {
	Own1   R1
	Own2   R2
	Forest forestcode.Decoded
	Nbr1   []R1
	Nbr2   []R2
}

// Check is a caller's extra per-node condition, evaluated on the labels
// the stage already decoded; false rejects.
type Check func(Node) bool

// verifier runs the stage's local checks plus the caller's Check.
type verifier struct {
	p     Params
	check Check
}

func (vf verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	var w bitio.Writer
	Coin{
		S:  rng.Uint64() & ((1 << uint(vf.p.L)) - 1),
		ST: spantree.SampleCoin(vf.p.ST, rng),
	}.write(&w, vf.p)
	return w.String()
}

func (vf verifier) Decide(view *dip.View) bool {
	own1, err := bitio.Decode(view.Own[0], vf.p, (*R1).read)
	if err != nil {
		return false
	}
	own2, err := bitio.Decode(view.Own[1], vf.p, (*R2).read)
	if err != nil {
		return false
	}
	coin, err := bitio.Decode(view.Coins[0], vf.p, (*Coin).read)
	if err != nil {
		return false
	}
	nbr1 := make([]R1, view.Deg)
	nbr2 := make([]R2, view.Deg)
	fcNbr := make([]forestcode.Label, view.Deg)
	for port := 0; port < view.Deg; port++ {
		if nbr1[port], err = bitio.Decode(view.Nbr[port][0], vf.p, (*R1).read); err != nil {
			return false
		}
		if nbr2[port], err = bitio.Decode(view.Nbr[port][1], vf.p, (*R2).read); err != nil {
			return false
		}
		fcNbr[port] = nbr1[port].FC
	}

	// Forest structure.
	dec, err := forestcode.Decode(own1.FC, fcNbr)
	if err != nil {
		return false
	}
	// Self string echo.
	if own2.Self != coin.S {
		return false
	}
	// Spanning tree of F.
	var parentSum *spantree.Sum
	nbrSums := make([]spantree.Sum, view.Deg)
	for port := range nbrSums {
		nbrSums[port] = nbr2[port].ST
		if port == dec.ParentPort {
			parentSum = &nbrSums[port]
		}
	}
	if !spantree.CheckNode(vf.p.ST, dec.ParentPort == -1, coin.ST, own2.ST, parentSum, nbrSums) {
		return false
	}
	// Leader children make a cut vertex.
	leaderChildren := 0
	for _, cp := range dec.ChildPorts {
		if nbr1[cp].Leader {
			leaderChildren++
		}
	}
	if own1.Cut != (leaderChildren > 0) {
		return false
	}
	// Root: must be a leader with no parent; leaders otherwise hang off
	// cut vertices.
	switch {
	case dec.ParentPort == -1:
		if !own1.Leader {
			return false
		}
		if own2.Sep != coin.S || own2.Lead != coin.S {
			return false
		}
	case own1.Leader:
		if !nbr1[dec.ParentPort].Cut {
			return false
		}
		if own2.Sep != nbr2[dec.ParentPort].Self {
			return false
		}
		if own2.Lead != coin.S {
			return false
		}
	default:
		// Inside a block: the anchors' strings propagate from the parent.
		if own2.Sep != nbr2[dec.ParentPort].Sep || own2.Lead != nbr2[dec.ParentPort].Lead {
			return false
		}
	}
	// Non-cut nodes must not have edges leaving their block.
	if !own1.Cut {
		for port := 0; port < view.Deg; port++ {
			sameHome := nbr2[port].Sep == own2.Sep && nbr2[port].Lead == own2.Lead
			viaCut := nbr1[port].Cut && own2.Sep == nbr2[port].Self
			if !sameHome && !viaCut {
				return false
			}
		}
	}
	return vf.check == nil || vf.check(Node{Own1: own1, Own2: own2, Forest: dec, Nbr1: nbr1, Nbr2: nbr2})
}

// Protocol wires the 3-round stage for the composite name ("outerplanar",
// "treewidth2"), which names the sub-run "<name>-structural". anchors[c]
// gives block c's anchors (the root block's entry is unused: Root anchors
// it); check, when non-nil, adds the caller's per-node conditions.
func Protocol(name string, g *graph.Graph, p Params, w *Witness, anchors []Anchor, check Check) *dip.Protocol {
	return &dip.Protocol{
		Name:           name + "-structural",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver: func() dip.Prover {
			return &prover{name: name, p: p, g: g, w: w, anchors: anchors}
		},
		Verifier: verifier{p: p, check: check},
	}
}
