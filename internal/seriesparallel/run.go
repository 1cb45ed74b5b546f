package seriesparallel

import (
	"fmt"
	"math/rand"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/pathouter"
)

// Rounds is the declared interaction-round count of Theorem 1.6.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.6 in
// bits: O(log log n), scaled from the pathouter bound to cover the
// structural-stage labels and the deferred ear-endpoint copies of the
// ears-as-edges simulation. delta is unused. Applies to honest runs on
// yes-instances; asserted by the bound-conformance test in
// internal/protocol.
func ProofSizeBound(n, delta int) int {
	p, err := pathouter.NewParams(n)
	if err != nil {
		return 0
	}
	return 48 * p.L
}

// Run executes the composed series-parallel DIP on g. A nil plan invokes
// the honest prover (SP decomposition via graph reduction); cheating
// provers supply their own plans. Rejecting stages surface in the
// outcome's Rejections map under "structural" and "nesting" (one count
// per rejecting ear sub-run); the outcome's NodeBits carry the merged
// per-node per-round accounting for composites layering on top
// (Theorem 1.7).
func Run(g *graph.Graph, plan *Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	endRun := cfg.CompositeSpan("seriesparallel", g.N(), Rounds)
	defer func() { endRun(res) }()
	res = &dip.Outcome{Rounds: Rounds}
	if plan == nil {
		plan, err = HonestPlan(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
	}
	p := NewParams(g.N())

	di := dip.NewInstance(g)
	structRes, err := StructuralProtocol(g, p, plan).RunOnce(di, rng, cfg.Child("structural")...)
	if err != nil {
		return nil, fmt.Errorf("seriesparallel: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	res.TotalLabelBits = structRes.Stats.TotalLabelBits

	merged := dip.NewNodeBits(3, g.N())
	merged.Add(structRes.Stats.LabelBits)

	accepted := structRes.Accepted
	for nix, ni := range plan.NestingInstances() {
		pp, err := pathouter.NewParams(ni.G.N())
		if err != nil {
			return nil, err
		}
		inst := &pathouter.Instance{G: ni.G, Pos: ni.Pos}
		sdi := dip.NewInstance(ni.G)
		sres, err := pathouter.Protocol(inst, pp).RunOnce(sdi, rng, cfg.Child(fmt.Sprintf("ear-%d", nix))...)
		if err != nil {
			if dip.Aborted(err) {
				return nil, err
			}
			res.Reject("nesting")
			accepted = false
			continue
		}
		if !sres.Accepted {
			res.Reject("nesting")
			accepted = false
		}
		res.TotalLabelBits += sres.Stats.TotalLabelBits
		mergeEarBits(merged, sres.Stats.LabelBits, ni, plan)
	}
	res.Accepted = accepted
	res.NodeBits = merged
	res.ProofSizeBits = merged.Max()
	return res, nil
}

// mergeEarBits charges an ear execution's label bits: interior nodes
// carry their own labels; the ear's two endpoints (which live on the host
// ear) have their labels deferred to their adjacent interior nodes, as in
// the paper's ears-as-edges simulation.
func mergeEarBits(merged dip.NodeBits, sub [][]int, ni NestingInstance, plan *Plan) {
	k := len(ni.Orig)
	for r, row := range sub {
		if r >= len(merged) {
			break
		}
		for sv, bits := range row {
			v := ni.Orig[sv]
			interiorHere := plan.EarOf[v] == ni.Ear
			if interiorHere {
				merged[r][v] += bits
				continue
			}
			// Deferred endpoint: charge the adjacent path node(s).
			if sv == 0 && k > 1 {
				merged[r][ni.Orig[1]] += bits
			} else if sv == k-1 && k > 1 {
				merged[r][ni.Orig[k-2]] += bits
			} else {
				merged[r][v] += bits
			}
		}
	}
}
