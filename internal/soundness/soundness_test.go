package soundness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/protocol"
)

func TestWilson(t *testing.T) {
	for _, tc := range []struct {
		k, n   int
		lo, hi float64
	}{
		{0, 0, 0, 1},
		{0, 40, 0, 0.0881},  // all rejections absent: upper bound well below 0.1
		{40, 40, 0.9119, 1}, // all rejections: lower bound well above 0.9
		{20, 40, 0.3520, 0.6480},
	} {
		lo, hi := Wilson(tc.k, tc.n, 1.96)
		if math.Abs(lo-tc.lo) > 1e-3 || math.Abs(hi-tc.hi) > 1e-3 {
			t.Errorf("Wilson(%d,%d) = (%.4f, %.4f), want (%.4f, %.4f)", tc.k, tc.n, lo, hi, tc.lo, tc.hi)
		}
		if lo > hi || lo < 0 || hi > 1 {
			t.Errorf("Wilson(%d,%d): degenerate interval (%v, %v)", tc.k, tc.n, lo, hi)
		}
	}
}

func TestCellSeedDeterministic(t *testing.T) {
	a := cellSeed(7, "planarity", "bitflip", 32)
	b := cellSeed(7, "planarity", "bitflip", 32)
	c := cellSeed(7, "planarity", "bitflip", 64)
	if a != b {
		t.Fatal("cellSeed not deterministic")
	}
	if a == c {
		t.Fatal("cellSeed ignores n")
	}
	if a < 0 {
		t.Fatal("cellSeed produced a negative seed")
	}
}

// TestEstimateQuick runs a reduced sweep over two protocols and
// asserts the headline invariants: completeness cells reject nothing,
// and the honest-but-corrupted soundness cells reject every
// no-instance (the matched families are deterministic no-instances,
// so the honest prover or the verifier catches them every time).
func TestEstimateQuick(t *testing.T) {
	rows, err := Estimate(context.Background(), Config{
		Protocols:  []string{"pathouter", "sp"},
		Strategies: []string{chaos.Honest, chaos.BitFlip},
		Sizes:      []int{24},
		Runs:       6,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 2 * (1 + 2) // per protocol: 1 completeness + 2 strategies × 1 size
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d", len(rows), wantRows)
	}
	for _, r := range rows {
		if r.Runs != 6 {
			t.Errorf("%s/%s: runs = %d, want 6", r.Protocol, r.Strategy, r.Runs)
		}
		switch r.Kind {
		case "completeness":
			if r.Rejects != 0 {
				t.Errorf("%s completeness: %d rejections on yes-instances", r.Protocol, r.Rejects)
			}
			if r.Strategy != "" {
				t.Errorf("%s completeness: unexpected strategy %q", r.Protocol, r.Strategy)
			}
		case "soundness":
			if r.Strategy == chaos.Honest && r.Rate < 0.9 {
				t.Errorf("%s/%s n=%d: rejection rate %.2f < 0.9", r.Protocol, r.Strategy, r.N, r.Rate)
			}
		default:
			t.Errorf("unknown row kind %q", r.Kind)
		}
		// The Wilson center is pulled toward 1/2, so the point estimate
		// can sit outside the interval at the 0 and 1 boundaries; only
		// the interval itself has to be sane.
		if r.Lo > r.Hi || r.Lo < 0 || r.Hi > 1 {
			t.Errorf("%s/%s: degenerate Wilson interval [%.3f, %.3f]", r.Protocol, r.Strategy, r.Lo, r.Hi)
		}
	}
}

// TestEstimateHonestRegistryWide: with the honest strategy, every
// registered protocol rejects every run on its matched no-family and
// none on its yes-family. The matched families are deterministic
// no-instances, so the cells must be exact, not merely above a rate.
func TestEstimateHonestRegistryWide(t *testing.T) {
	rows, err := Estimate(context.Background(), Config{
		Strategies: []string{chaos.Honest},
		Sizes:      []int{48},
		Runs:       4,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(protocol.Names()); len(rows) != want {
		t.Fatalf("got %d rows, want %d (one completeness and one soundness cell per protocol)", len(rows), want)
	}
	for _, r := range rows {
		switch {
		case r.Kind == "completeness" && r.Rejects != 0:
			t.Errorf("%s completeness on %s: %d of %d runs rejected", r.Protocol, r.Family, r.Rejects, r.Runs)
		case r.Kind == "soundness" && r.Rejects != r.Runs:
			t.Errorf("%s soundness on %s: %d of %d runs rejected", r.Protocol, r.Family, r.Rejects, r.Runs)
		}
	}
}

// TestEstimateDeterministic pins reproducibility: two sweeps with the
// same config produce identical rows.
func TestEstimateDeterministic(t *testing.T) {
	cfg := Config{
		Protocols:  []string{"pls"},
		Strategies: []string{chaos.Withhold},
		Sizes:      []int{16},
		Runs:       4,
		Seed:       9,
	}
	a, err := Estimate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEstimateUnknownProtocol(t *testing.T) {
	if _, err := Estimate(context.Background(), Config{Protocols: []string{"bogus"}}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestEstimateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Estimate(ctx, Config{Protocols: []string{"pls"}, Sizes: []int{16}, Runs: 2}); err == nil {
		t.Fatal("canceled sweep completed")
	}
}

func TestWriteNDJSON(t *testing.T) {
	rows := []Row{
		{Protocol: "pathouter", Kind: "soundness", Family: "k4planted", Strategy: "honest", N: 24, Runs: 6, Rejects: 6, Rate: 1, Lo: 0.61, Hi: 1, Seed: 3},
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{`"protocol":"pathouter"`, `"rejection_rate":1`, `"wilson_lo":0.61`, `"kind":"soundness"`} {
		if !strings.Contains(line, want) {
			t.Errorf("NDJSON missing %s in %s", want, line)
		}
	}
}

// TestEstimateFreezesOncePerCell: the estimator builds one instance per
// cell and every Monte-Carlo run reuses its memoized dense frozen form,
// so a sweep's freeze count equals its cell count — not its run count.
// pls on a deterministic single-strategy config has no generator
// retries, so the cell count is exact: one completeness anchor plus one
// soundness cell.
func TestEstimateFreezesOncePerCell(t *testing.T) {
	before := dip.FreezeCount()
	rows, err := Estimate(context.Background(), Config{
		Protocols:  []string{"pls"},
		Strategies: []string{chaos.BitFlip},
		Sizes:      []int{16},
		Runs:       8,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	got := dip.FreezeCount() - before
	if got != 2 {
		t.Fatalf("freeze count delta = %d for 2 cells × 8 runs, want exactly 2 (one per cell)", got)
	}
}

// TestEveryDescriptorHasNoFamily asserts the registry contract the
// estimator relies on: every descriptor declares a no-instance family
// the generator recognizes.
func TestEveryDescriptorHasNoFamily(t *testing.T) {
	for _, d := range protocol.All() {
		if d.NoFamily == "" {
			t.Errorf("%s: empty NoFamily", d.Name)
			continue
		}
		if _, err := buildInstance(d.NoFamily, 24, 5); err != nil {
			t.Errorf("%s: building NoFamily %q failed: %v", d.Name, d.NoFamily, err)
		}
	}
}
