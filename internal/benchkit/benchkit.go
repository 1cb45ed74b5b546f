// Package benchkit runs the n × GOMAXPROCS engine scaling table
// outside `go test`, so cmd/dipbench -scaling can write it as JSON for
// the CI speedup and allocation gates. Performance claims about the
// paper's protocols come from perfbench, not from this synthetic
// fixed-prover workload.
package benchkit

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
)

// Result is one benchmark measurement in wire form. Scaling-table rows
// tag their N and GOMAXPROCS.
type Result struct {
	Name        string `json:"name"`
	N           int    `json:"n,omitempty"`
	GOMAXPROCS  int    `json:"gomaxprocs,omitempty"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// Speedup is ns/op at GOMAXPROCS=1 over this row's ns/op, for
	// scaling-table rows measured alongside a serial partner
	// (FillSpeedups); zero (omitted) elsewhere.
	Speedup float64 `json:"speedup,omitempty"`
}

// Snapshot is one full suite run with its environment.
type Snapshot struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Note       string   `json:"note,omitempty"`
	Results    []Result `json:"results"`
}

// File is the written bench document: the latest run, replaced whole
// by every write.
type File struct {
	Schema  string    `json:"schema"`
	Current *Snapshot `json:"current"`
}

const schema = "bench_dip/v1"

func toResult(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// fixedProver replays a prerecorded assignment per round, like the test
// fixture of the same shape in internal/dip.
type fixedProver struct{ assigns []*dip.Assignment }

func (p *fixedProver) Round(round int, _ [][]bitio.String) (*dip.Assignment, error) {
	if round >= len(p.assigns) {
		return nil, fmt.Errorf("benchkit: no assignment for round %d", round)
	}
	return p.assigns[round], nil
}

// hotPathVerifier touches every label so view assembly cannot be elided,
// without any protocol-level decoding.
type hotPathVerifier struct{}

func (hotPathVerifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return bitio.FromUint(uint64(rng.Intn(16)), 4)
}

func (hotPathVerifier) Decide(view *dip.View) bool {
	sum := 0
	for r := range view.Own {
		sum += view.Own[r].Len()
	}
	for p := 0; p < view.Deg; p++ {
		for r := range view.Nbr[p] {
			sum += view.Nbr[p][r].Len() + view.EdgeLab[p][r].Len()
		}
	}
	return sum > 0
}

// WriteFile writes one suite run to path as {"schema", "current"},
// replacing whatever the file held.
func WriteFile(path, note string, results []Result) error {
	doc := &File{Schema: schema, Current: &Snapshot{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       note,
		Results:    results,
	}}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
