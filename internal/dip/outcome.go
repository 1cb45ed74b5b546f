package dip

// Outcome is the unified result type every protocol package returns
// from its Run entry point. It replaces the seven per-package Result
// structs that used to carry the same core fields under divergent
// names: the shared shape lets the protocol registry, the HTTP
// service, and the experiment harness consume any protocol's result
// without per-protocol adapters.
//
// Protocol-specific rejection diagnostics live in the Rejections map
// keyed by stage name ("decide", "tree", "nesting", "corner",
// "structural", "component", "block"); use Reject / Rejected / RejectionCount
// instead of touching the map directly so a zero-value Outcome stays
// usable.
type Outcome struct {
	// Accepted reports whether every node accepted in every
	// sub-execution — already folded with ProverFailed, so Accepted
	// implies the honest prover produced a complete proof.
	Accepted bool
	// ProverFailed reports that the honest prover could not construct
	// its witness (typically: the instance is a no-instance for the
	// promise the prover needs). The run counts as rejected.
	ProverFailed bool
	// Rounds is the number of interaction rounds executed (for
	// composites: of the deepest nested schedule).
	Rounds int
	// ProofSizeBits is the proof size: the largest per-node per-round
	// label in bits, with edge labels charged to their accountable
	// endpoint (Lemma 2.4 ownership accounting).
	ProofSizeBits int
	// TotalLabelBits sums all label bits over all rounds and nodes.
	TotalLabelBits int
	// MaxCoinBits is the largest per-node per-round coin string.
	MaxCoinBits int
	// RotationBits is the per-node cost of shipping the local rotation
	// (planarity only; included in ProofSizeBits).
	RotationBits int
	// Rejections counts rejecting sub-checks by stage name. Nil when no
	// stage rejected.
	Rejections map[string]int
	// NodeBits[r][v] is the per-node per-round label accounting of the
	// final (or only) sub-execution that exposes it; composite
	// protocols that stack further checks on top (treewidth-2 over
	// series-parallel) consume it. Nil when not exposed.
	NodeBits [][]int
}

// NodeBits is a composite's per-node per-round label table:
// NodeBits[r][v] sums the bits node v carries in prover round r over the
// sub-executions charged to it. Each composite applies its own charging
// rule for deferred labels by indexing the table directly.
type NodeBits [][]int

// NewNodeBits returns a zero table of rounds rows over n nodes.
func NewNodeBits(rounds, n int) NodeBits {
	b := make(NodeBits, rounds)
	for r := range b {
		b[r] = make([]int, n)
	}
	return b
}

// Add charges a sub-execution that ran on the same nodes: rows[r][v]
// goes to node v in round r. Rows past the table's last are dropped.
func (b NodeBits) Add(rows [][]int) {
	for r, row := range rows {
		if r >= len(b) {
			break
		}
		for v, bits := range row {
			b[r][v] += bits
		}
	}
}

// Max returns the largest entry: the composite's proof size.
func (b NodeBits) Max() int {
	m := 0
	for _, row := range b {
		for _, bits := range row {
			m = max(m, bits)
		}
	}
	return m
}

// Reject records one rejection at the named stage and marks the
// outcome rejected.
func (o *Outcome) Reject(stage string) {
	if o.Rejections == nil {
		o.Rejections = map[string]int{}
	}
	o.Rejections[stage]++
	o.Accepted = false
}

// Rejected reports whether the named stage rejected at least once.
func (o *Outcome) Rejected(stage string) bool { return o.RejectionCount(stage) > 0 }

// RejectionCount returns how many times the named stage rejected.
func (o *Outcome) RejectionCount(stage string) int {
	if o == nil || o.Rejections == nil {
		return 0
	}
	return o.Rejections[stage]
}

// OutcomeOf lifts an engine Result into the unified Outcome, declaring
// rounds interaction rounds (pass res.Stats.Rounds for single
// executions; composites pass their merged schedule). A rejecting
// result records one "decide" rejection per rejecting node, so raw
// single-protocol outcomes explain themselves the same way staged
// composites do.
func OutcomeOf(res *Result, rounds int) *Outcome {
	o := &Outcome{
		Accepted:       res.Accepted,
		Rounds:         rounds,
		ProofSizeBits:  res.Stats.MaxLabelBits,
		TotalLabelBits: res.Stats.TotalLabelBits,
		MaxCoinBits:    res.Stats.MaxCoinBits,
		NodeBits:       res.Stats.LabelBits,
	}
	if !res.Accepted {
		for _, ok := range res.NodeOutputs {
			if !ok {
				o.Reject("decide")
			}
		}
		if len(o.Rejections) == 0 {
			o.Reject("decide")
		}
	}
	return o
}
