// Package planarity implements the planarity DIP of Theorem 1.5 (via
// Lemma 7.2): the prover computes a combinatorial planar embedding of the
// input graph, ships each node its rotation values ρ_v(e) inside
// O(log Δ)-bit edge labels (hosted by the accountable endpoint under the
// Lemma 2.4 forest decomposition), and then the planar-embedding protocol
// of Theorem 1.4 verifies the shipped embedding. Proof size:
// O(log log n + log Δ); 5 interaction rounds.
package planarity

import (
	"errors"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/embedding"
	"repro/internal/graph"
	"repro/internal/planar"
)

// Rounds is the declared interaction-round count of Theorem 1.5.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.5 in
// bits: O(log log n + log Δ) — the embedding bound plus the rotation
// shipping term, at most degeneracy-many (<= 5 on planar graphs)
// accountable edges each carrying an ordered pair of log-Δ-wide
// rotation values. Applies to honest runs on yes-instances; asserted by
// the bound-conformance test in internal/protocol.
func ProofSizeBound(n, delta int) int {
	b := embedding.ProofSizeBound(n, delta)
	if b == 0 {
		return 0
	}
	return b + 2*5*bitio.BitsFor(delta)
}

// Run executes the planarity DIP. The prover uses hint as its embedding
// when non-nil (generators provide known rotations; adversaries provide
// crafted ones); otherwise it runs the DMP embedder, and fails — which
// the verifier treats as rejection — when the graph is not planar. The
// outcome's RotationBits reports the O(log Δ) shipping term separately
// (it is included in ProofSizeBits) so the Δ-sweep experiment can show
// the additive structure; rejections of the nested embedding stages
// surface under the embedding keys ("tree", "nesting", "corner").
func Run(g *graph.Graph, hint *planar.Rotation, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	endRun := cfg.CompositeSpan("planarity", g.N(), Rounds)
	defer func() { endRun(res) }()
	res = &dip.Outcome{Rounds: Rounds}
	if g.N() < 2 {
		return nil, errors.New("planarity: need n >= 2")
	}
	rot := hint
	if rot == nil {
		r, err := planar.Embed(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
		rot = r
	}
	emb, err := embedding.Run(g, rot, rng, cfg.Child("embedding")...)
	if err != nil {
		return nil, err
	}
	res.Rejections = emb.Rejections
	res.ProverFailed = emb.ProverFailed
	res.Accepted = emb.Accepted && !emb.ProverFailed
	res.RotationBits = shippingBits(g)
	res.ProofSizeBits = emb.ProofSizeBits + res.RotationBits
	res.TotalLabelBits = emb.TotalLabelBits + res.RotationBits*g.N()
	return res, nil
}

// shippingBits is the per-node cost of delivering the rotation values:
// every edge carries the ordered pair (ρ_u(e), ρ_v(e)) in its label, and
// each node is accountable for at most degeneracy-many (<= 5 on planar
// graphs) incident edges.
func shippingBits(g *graph.Graph) int {
	width := bitio.BitsFor(g.MaxDegree())
	out, _ := graph.OrientByDegeneracy(g)
	max := 0
	for v := range out {
		bits := len(out[v]) * 2 * width
		if bits > max {
			max = bits
		}
	}
	return max
}
