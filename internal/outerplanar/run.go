package outerplanar

import (
	"fmt"
	"math/rand"

	"repro/internal/blockcut"
	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/pathouter"
)

// Rounds is the declared interaction-round count of Theorem 1.3: the
// 3-round structural stage runs inside the 5 rounds of the component
// stages.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.3 in
// bits: O(log log n), scaled from the pathouter bound to cover the
// structural-stage labels and the deferred separating-node copies the
// merge charges to component neighbors (paper §6). delta is unused. It
// applies to honest runs on the paper's yes-instance families; the
// bound-conformance test in internal/protocol asserts it across a size
// sweep.
func ProofSizeBound(n, delta int) int {
	p, err := pathouter.NewParams(n)
	if err != nil {
		return 0
	}
	return 48 * p.L
}

// Run executes the composed outerplanarity DIP on g. If plan is nil the
// honest prover derives it with the centralized oracles; a cheating
// prover passes its own plan (soundness experiments do this with crafted
// decompositions). Options attach a tracer: the composite opens its own
// span and nests the structural stage and every component sub-execution
// under it. Rejecting stages surface in the outcome's Rejections map
// under "structural" (stage 1/2) and "component" (one count per
// rejecting component sub-run).
func Run(g *graph.Graph, plan *Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	endRun := cfg.CompositeSpan("outerplanar", g.N(), Rounds)
	defer func() { endRun(res) }()
	res = &dip.Outcome{Rounds: Rounds}
	if plan == nil {
		plan, err = HonestPlan(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
	}
	// Stage 1+2: the block–cut structural stage on the real graph, plus
	// the home-path checks of Theorem 6.1.
	di := dip.NewInstance(g)
	structural := blockcut.Protocol("outerplanar", g, blockcut.NewParams(g.N()), &plan.Witness, plan.anchors(), homePathChecks)
	structRes, err := structural.RunOnce(di, rng, cfg.Child("structural")...)
	if err != nil {
		return nil, fmt.Errorf("outerplanar: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	res.TotalLabelBits = structRes.Stats.TotalLabelBits

	// Per-node per-round label bits, merged across stages. The composed
	// protocol has 3 prover rounds; structural labels ride in the first
	// two.
	merged := dip.NewNodeBits(3, g.N())
	merged.Add(structRes.Stats.LabelBits)

	// Stage 3: path-outerplanarity in every component.
	accepted := structRes.Accepted
	component := plan.Components(g)
	for ci := range plan.Paths {
		sub := component(ci)
		if sub.G.N() < 2 {
			return nil, fmt.Errorf("outerplanar: degenerate component %d", ci)
		}
		pp, err := pathouter.NewParams(sub.G.N())
		if err != nil {
			return nil, err
		}
		inst := &pathouter.Instance{G: sub.G, Pos: sub.Pos}
		sdi := dip.NewInstance(sub.G)
		sres, err := pathouter.Protocol(inst, pp).RunOnce(sdi, rng, cfg.Child(fmt.Sprintf("component-%d", ci))...)
		if err != nil {
			if dip.Aborted(err) {
				return nil, err
			}
			// A prover that cannot label a component loses that
			// component: the verifier there rejects.
			res.Reject("component")
			accepted = false
			continue
		}
		if !sres.Accepted {
			res.Reject("component")
			accepted = false
		}
		res.TotalLabelBits += sres.Stats.TotalLabelBits
		mergeComponentBits(merged, sres.Stats.LabelBits, sub, g)
	}
	res.Accepted = accepted
	res.ProofSizeBits = merged.Max()
	return res, nil
}

// mergeComponentBits charges a component execution's label bits to real
// nodes: ordinary members carry their own labels; the separating node's
// labels are deferred to each of its component neighbors (paper §6), so
// cut vertices stay small no matter how many components meet there.
func mergeComponentBits(merged dip.NodeBits, sub [][]int, si SubInstance, g *graph.Graph) {
	for r, row := range sub {
		if r >= len(merged) {
			break
		}
		for sv, bits := range row {
			if sv == 0 {
				// Defer the separating node's bits to its neighbors
				// within the component.
				for _, u := range si.G.Neighbors(0) {
					merged[r][si.Orig[u]] += bits
				}
				continue
			}
			merged[r][si.Orig[sv]] += bits
		}
	}
}

// homePathChecks are the structural conditions outerplanarity adds to the
// block–cut stage: a node has at most one home-path child (leader
// children start child components), and the last node of a home path is
// adjacent to its component's separating node, which closes the
// Hamiltonian cycle of Theorem 6.1.
func homePathChecks(nd blockcut.Node) bool {
	pathChildren := 0
	for _, cp := range nd.Forest.ChildPorts {
		if !nd.Nbr1[cp].Leader {
			pathChildren++
		}
	}
	if pathChildren > 1 {
		return false
	}
	if pathChildren == 0 {
		for _, nb := range nd.Nbr2 {
			if nb.Self == nd.Own2.Sep {
				return true
			}
		}
		return false
	}
	return true
}
