package exp

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/protocol"
)

// TestSizeExperimentsAcceptSmall: every registered protocol, run
// through the registry path on its own family, and the E8 LR-sorting
// subroutine accept at n=128 within their declared rounds and bound.
func TestSizeExperimentsAcceptSmall(t *testing.T) {
	for _, d := range protocol.All() {
		t.Run(d.Suite, func(t *testing.T) {
			row, err := Protocol(d, gen.FamilySpec{Family: d.Family, N: 128, ChordProb: -1}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !row.Accepted {
				t.Fatalf("%s rejected at n=128", d.Name)
			}
			if row.Rounds != d.Rounds {
				t.Fatalf("%s rounds = %d, declared %d", d.Name, row.Rounds, d.Rounds)
			}
			if row.Bits <= 0 || row.Bits > row.BoundBits {
				t.Fatalf("%s proof size %d outside (0, %d]", d.Name, row.Bits, row.BoundBits)
			}
		})
	}
	t.Run("E8", func(t *testing.T) {
		row, err := E8LRSort(rand.New(rand.NewSource(1)), 128)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Accepted || row.Rounds != 5 || row.Bits <= 0 {
			t.Fatalf("E8 at n=128: %+v", row)
		}
	})
}

// TestE4DeltaMonotonicity: the Δ sweep reads planarity's additive
// rotation term off the registry outcome, and it grows with Δ.
func TestE4DeltaMonotonicity(t *testing.T) {
	d, ok := protocol.Get("planarity")
	if !ok {
		t.Fatal("planarity not registered")
	}
	prev := 0
	for _, delta := range []int{4, 16, 64} {
		row, err := Protocol(d, gen.FamilySpec{Family: "fanchain", N: 512, Delta: delta}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Accepted {
			t.Fatalf("delta=%d rejected", delta)
		}
		if row.RotationBits <= prev {
			t.Fatalf("rotation bits not increasing: %d then %d", prev, row.RotationBits)
		}
		prev = row.RotationBits
	}
}

func TestE7ThresholdSane(t *testing.T) {
	row, err := E7LowerBound(32)
	if err != nil {
		t.Fatal(err)
	}
	if row.Threshold < 4 || row.Threshold > row.Log2N+1 {
		t.Fatalf("threshold %d vs log2n %d", row.Threshold, row.Log2N)
	}
}

func TestE9E10Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	row, err := E9SpanTree(rng, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if row.Rate > 3*row.Bound+0.03 {
		t.Fatalf("E9 rate %.4f above bound %.4f", row.Rate, row.Bound)
	}
	mrow, err := E10Multiset(rng, 16, 300)
	if err != nil {
		t.Fatal(err)
	}
	if mrow.Rate > 3*mrow.Bound+0.03 {
		t.Fatalf("E10 rate %.4f above bound %.4f", mrow.Rate, mrow.Bound)
	}
}

func TestAblationTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r1, err := AblationExponent(rng, 4096, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := AblationExponent(rng, 4096, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if r4.ProofBits <= r1.ProofBits {
		t.Fatalf("higher exponent should cost bits: c=1 %d, c=4 %d", r1.ProofBits, r4.ProofBits)
	}
	if r4.Bound >= r1.Bound {
		t.Fatalf("higher exponent should tighten the bound: %.6f vs %.6f", r1.Bound, r4.Bound)
	}
}
