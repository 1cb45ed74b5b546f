package spantree

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestCompletenessOnSpanningTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		inst := gen.Triangulation(rng, 5+rng.Intn(40))
		tree, err := graph.BFSTree(inst.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		var tEdges []graph.Edge
		for v, p := range tree.Parent {
			if p != -1 {
				tEdges = append(tEdges, graph.Canon(v, p))
			}
		}
		di := NewInstance(inst.G, tEdges)
		proto := Protocol(di, Amplified(8))
		trialRes, err := proto.Repeat(di, 20, rng)
		if err != nil {
			t.Fatal(err)
		}
		if trialRes.Accepts != trialRes.Runs {
			t.Fatalf("trial %d: completeness %d/%d", trial, trialRes.Accepts, trialRes.Runs)
		}
		if trialRes.Rounds != 3 {
			t.Fatalf("rounds = %d, want 3", trialRes.Rounds)
		}
	}
}

func TestProofSizeConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := DefaultParams()
	var sizes []int
	for _, n := range []int{16, 64, 256, 1024} {
		inst := gen.Triangulation(rng, n)
		tree, _ := graph.BFSTree(inst.G, 0)
		var tEdges []graph.Edge
		for v, pa := range tree.Parent {
			if pa != -1 {
				tEdges = append(tEdges, graph.Canon(v, pa))
			}
		}
		di := NewInstance(inst.G, tEdges)
		res, err := Protocol(di, p).RunOnce(di, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("n=%d rejected", n)
		}
		sizes = append(sizes, res.Stats.MaxLabelBits)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			t.Fatalf("proof size not constant across n: %v", sizes)
		}
	}
}

// forgedForestProver commits an arbitrary parent structure with matching
// honest sums; used to attack forest (multi-root) instances.
type forgedForestProver struct {
	g      *graph.Graph
	parent []int
	p      Params
}

func (fp *forgedForestProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	switch round {
	case 0:
		return encodeStructure(fp.g, fp.parent)
	case 1:
		cs := make([]Coin, fp.g.N())
		for v := range cs {
			c, err := DecodeCoin(coins[0][v], fp.p)
			if err != nil {
				return nil, err
			}
			cs[v] = c
		}
		sums, err := HonestSums(fp.parent, cs)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(fp.g)
		for v := 0; v < fp.g.N(); v++ {
			a.Node[v] = sums[v].Encode(fp.p)
		}
		return a, nil
	}
	return nil, nil
}

func encodeStructure(g *graph.Graph, parent []int) (*dip.Assignment, error) {
	labels, err := forestcode.EncodeForest(g, parent)
	if err != nil {
		return nil, err
	}
	a := dip.NewAssignment(g)
	for v := 0; v < g.N(); v++ {
		var w bitio.Writer
		round0Label{fc: labels[v], root: parent[v] == -1}.write(&w)
		a.Node[v] = w.String()
	}
	return a, nil
}

func TestSoundnessTwoComponents(t *testing.T) {
	// Path graph; T omits the middle edge, so T is a 2-tree forest. The
	// forged prover commits both roots honestly; only the component-ID
	// check can catch it, with probability 1 - 2^-IDBits.
	rng := rand.New(rand.NewSource(3))
	const n = 12
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
	parent := make([]int, n)
	parent[0] = -1
	parent[mid+1] = -1
	for i := 1; i < n; i++ {
		if i != mid+1 {
			parent[i] = i - 1
		}
	}
	for _, idBits := range []int{1, 4, 8} {
		p := Params{Reps: 8, IDBits: idBits}
		di := NewInstance(g, tEdges)
		proto := &dip.Protocol{
			Name:           "spantree-forged",
			ProverRounds:   2,
			VerifierRounds: 1,
			NewProver: func() dip.Prover {
				return &forgedForestProver{g: g, parent: parent, p: p}
			},
			Verifier: verifier{p: p},
		}
		const runs = 600
		trial, err := proto.Repeat(di, runs, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0 / float64(uint64(1)<<uint(idBits))
		got := trial.AcceptRate()
		if got > 3*want+0.02 {
			t.Fatalf("idBits=%d: accept rate %.4f far above bound %.4f", idBits, got, want)
		}
		if idBits == 1 && got < want/4 {
			t.Fatalf("idBits=1: accept rate %.4f suspiciously below expected %.4f (check the attack wiring)", got, want)
		}
	}
}

// cycleCommitProver encodes the directed Hamiltonian cycle of C_n (n
// divisible by 4) as a parent structure via hand-crafted forest-code
// colors, then fills telescoping sums that satisfy all but (possibly) one
// constraint. Acceptance requires the XOR of all coins to vanish:
// probability 2^-Reps.
type cycleCommitProver struct {
	g *graph.Graph
	p Params
}

func (cp *cycleCommitProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	n := cp.g.N()
	switch round {
	case 0:
		a := dip.NewAssignment(cp.g)
		for v := 0; v < n; v++ {
			// parent(v) = v+1 mod n; see package test notes.
			c1 := (((v + 1) % n) / 2) % 2
			c2 := (v / 2) % 2
			var w bitio.Writer
			w.WriteUint(uint64(c1), 3)
			w.WriteUint(uint64(c2), 3)
			w.WriteUint(uint64(v%2), 1)
			w.WriteBool(false) // nobody is a root
			a.Node[v] = w.String()
		}
		return a, nil
	case 1:
		cs := make([]Coin, n)
		for v := range cs {
			c, err := DecodeCoin(coins[0][v], cp.p)
			if err != nil {
				return nil, err
			}
			cs[v] = c
		}
		// S[v] = a[v] xor S[v+1]; fix S[0] = 0 and solve backwards. The
		// constraint at v = n-1 holds iff xor of all a's is 0.
		sums := make([]Sum, n)
		sums[0] = Sum{S: 0, ID: 0}
		for v := n - 1; v >= 1; v-- {
			sums[v] = Sum{S: cs[v].A ^ sums[(v+1)%n].S, ID: 0}
		}
		a := dip.NewAssignment(cp.g)
		for v := 0; v < n; v++ {
			a.Node[v] = sums[v].Encode(cp.p)
		}
		return a, nil
	}
	return nil, nil
}

func TestSoundnessCycleCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 8
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	var tEdges []graph.Edge
	for _, e := range g.Edges() {
		tEdges = append(tEdges, e)
	}
	for _, reps := range []int{1, 3, 6} {
		p := Params{Reps: reps, IDBits: 2}
		di := NewInstance(g, tEdges)
		proto := &dip.Protocol{
			Name:           "spantree-cycle",
			ProverRounds:   2,
			VerifierRounds: 1,
			NewProver:      func() dip.Prover { return &cycleCommitProver{g: g, p: p} },
			Verifier:       verifier{p: p},
		}
		const runs = 800
		trial, err := proto.Repeat(di, runs, rng)
		if err != nil {
			t.Fatal(err)
		}
		want := 1.0 / float64(uint64(1)<<uint(reps))
		got := trial.AcceptRate()
		if got > 2.5*want+0.02 {
			t.Fatalf("reps=%d: accept rate %.4f, expected about %.4f", reps, got, want)
		}
		if reps == 1 && got < want/4 {
			t.Fatalf("reps=1: accept rate %.4f too low — attack miswired?", got)
		}
	}
}

func TestHonestProverRejectsWhenTreeIsNotSpanning(t *testing.T) {
	// With the honest prover and a T that is actually a cycle, the
	// committed structure cannot match T, so rejection is certain.
	rng := rand.New(rand.NewSource(5))
	const n = 8
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	di := NewInstance(g, g.Edges())
	proto := Protocol(di, Amplified(4))
	trial, err := proto.Repeat(di, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if trial.Accepts != 0 {
		t.Fatalf("cycle accepted %d/%d times with honest prover", trial.Accepts, trial.Runs)
	}
}

func TestCoinSumRoundTrip(t *testing.T) {
	p := Params{Reps: 5, IDBits: 7}
	c := Coin{A: 0b10110, ID: 0b1010101}
	got, err := DecodeCoin(c.Encode(p), p)
	if err != nil || got != c {
		t.Fatalf("coin round trip: %v %v", got, err)
	}
	s := Sum{S: 0b00111, ID: 0b1111111}
	got2, err := DecodeSum(s.Encode(p), p)
	if err != nil || got2 != s {
		t.Fatalf("sum round trip: %v %v", got2, err)
	}
}

func TestHonestSumsRejectsCycle(t *testing.T) {
	if _, err := HonestSums([]int{1, 2, 0}, make([]Coin, 3)); err == nil {
		t.Fatal("cycle accepted by HonestSums")
	}
}
