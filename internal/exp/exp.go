// Package exp implements the experiment suite of EXPERIMENTS.md,
// shared by the root benchmarks, cmd/dipbench and examples/sizesweep.
// Every registered protocol's experiment (E1–E6, E11, the E4 Δ sweep)
// runs through one registry path, Protocol; the functions here cover
// what is not a registered protocol: the LR-sorting subroutine (E8),
// the lower bound (E7), the Lemma 2.5/2.6 soundness sweeps (E9, E10)
// and the soundness-exponent ablation.
package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/lrsort"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/spantree"
)

// SizeRow is one point of a proof-size sweep.
type SizeRow struct {
	N            int
	Rounds       int
	Bits         int // DIP proof size (max label bits)
	BoundBits    int // the descriptor's declared bound at (n, Δ); 0 for E8
	RotationBits int // planarity's additive O(log Δ) shipping term
	Accepted     bool
	Wall         time.Duration // the protocol run alone, instance build excluded
}

// Protocol is the one registry path of the experiment suite: it builds
// spec's witnessed instance from seed and runs d on it with verifier
// randomness from the same seed. Equal (spec, seed) pairs build the
// same instance, so two descriptors called with them are measured on
// one instance (E11's DIP-vs-PLS comparison).
func Protocol(d *protocol.Descriptor, spec gen.FamilySpec, seed int64, opts ...dip.RunOption) (SizeRow, error) {
	g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
	if err != nil {
		return SizeRow{}, err
	}
	start := time.Now()
	out, err := d.Run(context.Background(), &protocol.Instance{G: g, PathPos: pos, Rotation: rot}, seed, opts...)
	if err != nil {
		return SizeRow{}, err
	}
	return SizeRow{
		N: g.N(), Rounds: out.Rounds,
		Bits:         out.ProofSizeBits,
		BoundBits:    d.ProofSizeBound(g.N(), g.MaxDegree()),
		RotationBits: out.RotationBits,
		Accepted:     out.Accepted,
		Wall:         time.Since(start),
	}, nil
}

// ThresholdRow is one point of the Theorem 1.8 lower-bound sweep.
type ThresholdRow struct {
	PathLen   int
	N         int
	Threshold int // smallest label budget where the attack fails
	Log2N     int
}

// E7LowerBound measures the cut-and-paste threshold at path length l.
func E7LowerBound(l int) (ThresholdRow, error) {
	k, _, err := lowerbound.Threshold(l)
	if err != nil {
		return ThresholdRow{}, err
	}
	n := 6 + 10*l
	log2 := 0
	for 1<<uint(log2) < n {
		log2++
	}
	return ThresholdRow{PathLen: l, N: n, Threshold: k, Log2N: log2}, nil
}

// E8LRSort measures Lemma 4.1 at size n.
func E8LRSort(rng *rand.Rand, n int, opts ...dip.RunOption) (SizeRow, error) {
	inst := lrSortYes(rng, n, n/4)
	p, err := lrsort.NewParams(n)
	if err != nil {
		return SizeRow{}, err
	}
	di := lrsort.NewDIPInstance(inst)
	start := time.Now()
	res, err := lrsort.Protocol(inst, p).RunOnce(di, rng, opts...)
	if err != nil {
		return SizeRow{}, err
	}
	return SizeRow{N: n, Rounds: res.Stats.Rounds, Bits: res.Stats.MaxLabelBits, Accepted: res.Accepted, Wall: time.Since(start)}, nil
}

func lrSortYes(rng *rand.Rand, n, extra int) *lrsort.Instance {
	perm := rng.Perm(n)
	pos := make([]int, n)
	for q, v := range perm {
		pos[v] = q
	}
	g := graph.New(n)
	for q := 0; q+1 < n; q++ {
		g.MustAddEdge(perm[q], perm[q+1])
	}
	inst := &lrsort.Instance{G: g, Pos: pos}
	for len(inst.Edges) < extra {
		q1 := rng.Intn(n - 2)
		q2 := q1 + 2 + rng.Intn(n-q1-2)
		if g.HasEdge(perm[q1], perm[q2]) {
			continue
		}
		g.MustAddEdge(perm[q1], perm[q2])
		inst.Edges = append(inst.Edges, lrsort.DirectedEdge{Tail: perm[q1], Head: perm[q2]})
	}
	return inst
}

// SoundnessRow reports a measured acceptance rate against a bound.
type SoundnessRow struct {
	Name      string
	Runs      int
	Accepts   int
	Rate      float64
	Bound     float64 // analytic bound (0 = unspecified)
	ProofBits int
}

// E9SpanTree measures Lemma 2.5's amplification: acceptance of a forged
// two-component forest as a function of the repetition parameter.
func E9SpanTree(rng *rand.Rand, reps, runs int) (SoundnessRow, error) {
	const n = 16
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	mid := n / 2
	var tEdges []graph.Edge
	for i := 0; i+1 < n; i++ {
		if i != mid {
			tEdges = append(tEdges, graph.Canon(i, i+1))
		}
	}
	p := spantree.Params{Reps: reps, IDBits: reps}
	di := spantree.NewInstance(g, tEdges)
	proto := spantree.Protocol(di, p)
	tr, err := proto.Repeat(di, runs, rng)
	if err != nil {
		return SoundnessRow{}, err
	}
	// The prover commits the two-component forest as given (both roots
	// marked), so every local check passes except the component-ID
	// comparison across the missing middle edge: acceptance requires an
	// ID collision, probability exactly 2^-reps.
	return SoundnessRow{
		Name:      fmt.Sprintf("spantree reps=%d", reps),
		Runs:      tr.Runs,
		Accepts:   tr.Accepts,
		Rate:      tr.AcceptRate(),
		Bound:     1.0 / float64(uint64(1)<<uint(reps)),
		ProofBits: tr.MaxLabelBits,
	}, nil
}

// E10Multiset measures Lemma 2.6: acceptance of unequal multisets as a
// function of the field size.
func E10Multiset(rng *rand.Rand, k int, runs int) (SoundnessRow, error) {
	gi := gen.Triangulation(rng, 16)
	tree, err := graph.BFSTree(gi.G, 0)
	if err != nil {
		return SoundnessRow{}, err
	}
	n := gi.G.N()
	s1 := make([][]uint64, n)
	s2 := make([][]uint64, n)
	s1[1] = []uint64{2, 4}
	s2[2] = []uint64{2, 5}
	inst, err := multiset.NewInstance(gi.G, tree, s1, s2)
	if err != nil {
		return SoundnessRow{}, err
	}
	p, err := multiset.NewParams(k, 2)
	if err != nil {
		return SoundnessRow{}, err
	}
	tr, err := multiset.Protocol(inst, p).Repeat(inst, runs, rng)
	if err != nil {
		return SoundnessRow{}, err
	}
	return SoundnessRow{
		Name:      fmt.Sprintf("multiset k=%d p=%d", k, p.F.P),
		Runs:      tr.Runs,
		Accepts:   tr.Accepts,
		Rate:      tr.AcceptRate(),
		Bound:     float64(k) / float64(p.F.P),
		ProofBits: tr.MaxLabelBits,
	}, nil
}

// AblationRow is one point of the soundness-exponent ablation: the
// paper's constant c trades label bits against the 1/polylog n soundness
// error. Both sides are measured with the inner-block-lie adversary.
type AblationRow struct {
	C         int
	FieldP0   uint64
	ProofBits int
	Runs      int
	Accepts   int
	Rate      float64
	Bound     float64 // ~1/p0 per lying edge
}

// AblationExponent measures LR-sorting at size n with soundness exponent
// c: honest label size plus the adversary's acceptance rate.
func AblationExponent(rng *rand.Rand, n, c, runs int) (AblationRow, error) {
	p, err := lrsort.NewParamsWithExponent(n, c)
	if err != nil {
		return AblationRow{}, err
	}
	// Honest proof size on a yes-instance.
	yes := lrSortYes(rng, n, n/4)
	di := lrsort.NewDIPInstance(yes)
	hres, err := lrsort.Protocol(yes, p).RunOnce(di, rng)
	if err != nil {
		return AblationRow{}, err
	}
	if !hres.Accepted {
		return AblationRow{}, fmt.Errorf("ablation c=%d: honest run rejected", c)
	}
	// Adversarial acceptance on the crafted backward-edge instance.
	no := lrsort.BackwardEdgeInstance(p, rng.Perm(n))
	if no == nil {
		return AblationRow{}, fmt.Errorf("ablation: n=%d too small", n)
	}
	ndi := lrsort.NewDIPInstance(no)
	proto := &dip.Protocol{
		Name:           "lrsort-ablation",
		ProverRounds:   3,
		VerifierRounds: 2,
		NewProver:      func() dip.Prover { return lrsort.NewInnerBlockLiar(p, no) },
		Verifier:       lrsort.Verifier{P: p},
	}
	tr, err := proto.Repeat(ndi, runs, rng)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		C:         c,
		FieldP0:   p.F0.P,
		ProofBits: hres.Stats.MaxLabelBits,
		Runs:      tr.Runs,
		Accepts:   tr.Accepts,
		Rate:      tr.AcceptRate(),
		Bound:     1.0 / float64(p.F0.P),
	}, nil
}
