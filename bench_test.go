package planardip

// One benchmark per experiment of EXPERIMENTS.md (E1–E11). Each bench
// reports the measured proof size via b.ReportMetric so `go test -bench`
// regenerates the evaluation's numbers; cmd/dipbench prints the full
// sweep tables.

import (
	"math/rand"
	"testing"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/protocol"
)

const benchN = 4096

// BenchmarkProtocols runs every registered protocol (E1–E6, E11) on its
// own family at n = benchN through the registry path and reports its
// proof size against the declared bound. The E11 sub-benchmark also
// runs the pathouter DIP on the PLS baseline's instance: the paper's
// DIP-vs-PLS comparison on one shared instance.
func BenchmarkProtocols(b *testing.B) {
	pathouter, ok := protocol.Get("pathouter")
	if !ok {
		b.Fatal("pathouter not registered")
	}
	for _, d := range protocol.All() {
		b.Run(d.Suite+"-"+d.Name, func(b *testing.B) {
			spec := gen.FamilySpec{Family: d.Family, N: benchN, ChordProb: -1}
			var row, dipRow exp.SizeRow
			for i := 0; i < b.N; i++ {
				row = acceptedRun(b, d, spec, int64(i))
				if d.Name == "pls" {
					dipRow = acceptedRun(b, pathouter, spec, int64(i))
				}
			}
			b.ReportMetric(float64(row.Bits), "proof-bits")
			b.ReportMetric(float64(row.BoundBits), "bound-bits")
			b.ReportMetric(float64(row.Rounds), "rounds")
			if d.Name == "pls" {
				b.ReportMetric(float64(dipRow.Bits), "dip-bits")
			}
		})
	}
}

// acceptedRun runs d through the registry path and fails the benchmark
// unless the honest run accepts.
func acceptedRun(b *testing.B, d *protocol.Descriptor, spec gen.FamilySpec, seed int64) exp.SizeRow {
	row, err := exp.Protocol(d, spec, seed)
	if err != nil {
		b.Fatal(err)
	}
	if !row.Accepted {
		b.Fatalf("%s rejected", d.Name)
	}
	return row
}

func BenchmarkE7LowerBound(b *testing.B) {
	var last exp.ThresholdRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E7LowerBound(256)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.Threshold), "threshold-bits")
	b.ReportMetric(float64(last.Log2N), "log2n")
}

func BenchmarkE8LRSort(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	var last exp.SizeRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E8LRSort(rng, benchN)
		if err != nil {
			b.Fatal(err)
		}
		if !row.Accepted {
			b.Fatal("rejected")
		}
		last = row
	}
	b.ReportMetric(float64(last.Bits), "proof-bits")
	b.ReportMetric(float64(last.Rounds), "rounds")
}

func BenchmarkE9SpanTree(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var last exp.SoundnessRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E9SpanTree(rng, 8, 50)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.Rate, "accept-rate")
	b.ReportMetric(last.Bound, "bound")
}

func BenchmarkE10Multiset(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var last exp.SoundnessRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E10Multiset(rng, 16, 50)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.Rate, "accept-rate")
	b.ReportMetric(last.Bound, "bound")
}

func BenchmarkAblationSoundnessExponent(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	var last exp.AblationRow
	for i := 0; i < b.N; i++ {
		row, err := exp.AblationExponent(rng, 4096, 2, 20)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.ProofBits), "proof-bits")
	b.ReportMetric(last.Rate, "liar-accept-rate")
}
