// Command dipbench runs the full experiment suite (E1–E11 of
// EXPERIMENTS.md) and prints the result tables. Use -quick for a reduced
// sweep and -seed for reproducibility.
//
// Observability flags (schema in OBSERVABILITY.md):
//
//	-json            emit one NDJSON object per sweep point on stdout
//	                 (per-round label/coin bit histograms + wall clock)
//	                 instead of the hand-formatted tables
//	-trace FILE      stream the full typed event trace as NDJSON to FILE
//	-cpuprofile FILE write a pprof CPU profile of the whole suite
//	-memprofile FILE write a pprof heap profile at exit
//	-mutexprofile FILE write a pprof mutex-contention profile at exit
//	-blockprofile FILE write a pprof blocking profile at exit (both
//	                 contention profiles work in every mode, including
//	                 -scaling, which is where lock contention between
//	                 pool workers would show up)
//	-scaling FILE    run the n × GOMAXPROCS scaling table (builder-built
//	                 grids certified through the orchestrated engine at
//	                 n ∈ {10^4,10^5,10^6} × P ∈ {1,2,4,NumCPU}; -quick
//	                 drops the 10^6 tier) and write the rows, including
//	                 the computed speedup column, to FILE
//	-assert-speedup X  with -scaling: exit nonzero unless, for every n,
//	                 ns/op at the highest P is <= X × ns/op at P=1 (the
//	                 CI "parallel is not slower" smoke; use ~1.2 to
//	                 absorb scheduler noise)
//
// Every sweep point runs on its own child seed derived from (-seed,
// sweep name, n), so a single row is reproducible in isolation and a
// failure in one sweep cannot shift the randomness of later ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchkit"
	"repro/internal/dip"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/soundness"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps")
	seed := flag.Int64("seed", 42, "verifier randomness seed")
	jsonOut := flag.Bool("json", false, "emit NDJSON rows instead of tables")
	traceFile := flag.String("trace", "", "write NDJSON event trace to file")
	cpuProfile := flag.String("cpuprofile", "", "write CPU profile to file")
	memProfile := flag.String("memprofile", "", "write heap profile to file")
	mutexProfile := flag.String("mutexprofile", "", "write mutex-contention profile to file at exit")
	blockProfile := flag.String("blockprofile", "", "write blocking profile to file at exit")
	scaling := flag.String("scaling", "", "run only the n × GOMAXPROCS scaling table and write its rows to this JSON file")
	assertSpeedup := flag.Float64("assert-speedup", 0, "with -scaling: fail unless ns/op at the highest GOMAXPROCS <= NumCPU is <= this factor × serial ns/op for every n")
	soundnessSweep := flag.Bool("soundness", false, "run only the Monte-Carlo soundness estimator sweep (E-S)")
	flag.Parse()
	// Contention profiling is mode-independent: it arms the runtime's
	// mutex/block samplers before any workload runs and flushes at exit,
	// so `-scaling -mutexprofile ...` profiles exactly the pool workers.
	defer writeContentionProfiles(*mutexProfile, *blockProfile)()
	if *scaling != "" {
		if err := runScaling(*scaling, *quick, *jsonOut, *assertSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "dipbench:", err)
			os.Exit(1)
		}
		return
	}
	if *soundnessSweep {
		if err := runSoundness(*quick, *seed, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "dipbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*quick, *seed, *jsonOut, *traceFile, *cpuProfile, *memProfile); err != nil {
		fmt.Fprintln(os.Stderr, "dipbench:", err)
		os.Exit(1)
	}
}

// writeContentionProfiles arms the runtime's mutex and block samplers
// (only when the matching flag is set — both samplers cost a little on
// every contended lock once enabled) and returns the flush to run at
// exit. Rates follow the usual pprof conventions: every fifth mutex
// contention event, every blocking event >= 1µs.
func writeContentionProfiles(mutexFile, blockFile string) func() {
	if mutexFile != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if blockFile != "" {
		runtime.SetBlockProfileRate(1000)
	}
	flush := func(name, file string) {
		if file == "" {
			return
		}
		f, err := os.Create(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %sprofile: %v\n", name, err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %sprofile: %v\n", name, err)
		}
	}
	return func() {
		flush("mutex", mutexFile)
		flush("block", blockFile)
	}
}

// runScaling measures the streaming bulk pipeline end to end: per grid
// size, one Builder-built instance frozen exactly once, certified by
// the orchestrated engine at each GOMAXPROCS column, and the rows
// written to the bench file. With -assert-speedup it doubles as the CI
// smoke that parallel execution never loses to serial beyond the given
// tolerance.
func runScaling(file string, quick, jsonOut bool, assertSpeedup float64) error {
	results, err := benchkit.Scaling(benchkit.ScalingSizes(quick), benchkit.ScalingProcs())
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, r := range results {
			if err := enc.Encode(map[string]any{
				"type": "scaling_bench", "name": r.Name, "n": r.N, "gomaxprocs": r.GOMAXPROCS,
				"iterations": r.Iterations, "ns_per_op": r.NsPerOp,
				"bytes_per_op": r.BytesPerOp, "allocs_per_op": r.AllocsPerOp,
				"speedup": r.Speedup,
			}); err != nil {
				return err
			}
		}
	} else {
		fmt.Printf("%-24s %10s %6s %10s %16s %16s %14s %8s\n", "benchmark", "n", "procs", "iters", "ns/op", "B/op", "allocs/op", "speedup")
		for _, r := range results {
			fmt.Printf("%-24s %10d %6d %10d %16d %16d %14d %8.2f\n",
				r.Name, r.N, r.GOMAXPROCS, r.Iterations, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, r.Speedup)
		}
	}
	note := fmt.Sprintf("cmd/dipbench -scaling (NumCPU=%d)", runtime.NumCPU())
	if err := benchkit.WriteFile(file, note, results); err != nil {
		return err
	}
	if assertSpeedup > 0 {
		checked, err := benchkit.AssertSpeedup(results, assertSpeedup, runtime.NumCPU())
		if err != nil {
			return err
		}
		if checked == 0 {
			fmt.Fprintf(os.Stderr, "dipbench: speedup gate skipped: no GOMAXPROCS in (1, NumCPU=%d] to compare\n", runtime.NumCPU())
		} else {
			fmt.Fprintf(os.Stderr, "dipbench: speedup gate passed for %d sizes at GOMAXPROCS <= NumCPU=%d\n", checked, runtime.NumCPU())
		}
	}
	return nil
}

// runSoundness runs the registry-wide Monte-Carlo soundness sweep
// (EXPERIMENTS.md E-S): per protocol, one completeness anchor on the
// yes-family plus a (strategy × n) grid on the matched no-family, with
// Wilson 95% intervals. -quick shrinks to n=24 with 8 runs per cell.
func runSoundness(quick bool, seed int64, jsonOut bool) error {
	cfg := soundness.Config{Seed: seed}
	if quick {
		cfg.Sizes = []int{24}
		cfg.Runs = 8
	}
	rows, err := soundness.Estimate(context.Background(), cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return soundness.WriteNDJSON(os.Stdout, rows)
	}
	fmt.Printf("== E-S Monte-Carlo soundness sweep (seed %d) ==\n", seed)
	fmt.Printf("%-12s %-14s %-12s %-14s %6s %6s %8s %8s %8s %18s\n",
		"protocol", "kind", "family", "strategy", "n", "runs", "rejects", "pfail", "rate", "wilson 95%")
	for _, r := range rows {
		strategy := r.Strategy
		if strategy == "" {
			strategy = "-"
		}
		fmt.Printf("%-12s %-14s %-12s %-14s %6d %6d %8d %8d %8.3f [%6.3f, %6.3f]\n",
			r.Protocol, r.Kind, r.Family, strategy, r.N, r.Runs, r.Rejects, r.ProverFailures, r.Rate, r.Lo, r.Hi)
	}
	return nil
}

// childSeed derives the per-(sweep, n) seed: rows are individually
// reproducible and independent of execution order.
func childSeed(seed int64, sweep string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, sweep, n)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// bench carries the per-invocation output and tracing state.
type bench struct {
	jsonOut bool
	enc     *json.Encoder // NDJSON rows (nil in table mode)
	events  *obs.NDJSONTracer
	reg     *obs.Registry
	seed    int64
}

// row emits one NDJSON object in JSON mode.
func (b *bench) row(obj map[string]any) error {
	if !b.jsonOut {
		return nil
	}
	return b.enc.Encode(obj)
}

// runMetricsJSON flattens a CollectTracer snapshot tree into the wire
// shape: one entry per execution span with its per-round histograms.
func runMetricsJSON(runs []*obs.Metrics) []map[string]any {
	var out []map[string]any
	var walk func(m *obs.Metrics)
	walk = func(m *obs.Metrics) {
		rounds := make([]map[string]any, 0, len(m.RoundMetrics))
		for _, r := range m.RoundMetrics {
			rm := map[string]any{"phase": r.Phase, "round": r.Round, "wall_ns": r.WallNS}
			if r.Phase == "prover" {
				rm["label_bits"] = histMap(r.LabelBits)
			} else {
				rm["coin_bits"] = histMap(r.CoinBits)
			}
			if r.Workers > 0 {
				rm["workers"] = r.Workers
			}
			rounds = append(rounds, rm)
		}
		entry := map[string]any{
			"protocol": m.Protocol,
			"span":     m.Span,
			"engine":   m.Engine,
			"nodes":    m.Nodes,
			"accepted": m.Accepted,
			"wall_ns":  m.WallNS,
		}
		if m.MaxLabelBits > 0 {
			entry["max_label_bits"] = m.MaxLabelBits
		}
		if m.TotalLabelBits > 0 {
			entry["total_label_bits"] = m.TotalLabelBits
		}
		if len(rounds) > 0 {
			entry["rounds"] = rounds
		}
		out = append(out, entry)
		for _, s := range m.Subs {
			walk(s)
		}
	}
	for _, m := range runs {
		walk(m)
	}
	return out
}

func histMap(h obs.Hist) map[string]int {
	return map[string]int{"min": h.Min, "p50": h.P50, "max": h.Max, "sum": h.Sum}
}

// tracedOpts builds the per-point tracer chain: a fresh collector (for
// the JSON row) plus the shared event stream, when either is active.
func (b *bench) tracedOpts() (*obs.CollectTracer, []dip.RunOption) {
	collect := obs.NewCollectWithRegistry(b.reg)
	var tr obs.Tracer = collect
	if b.events != nil {
		tr = obs.Multi(collect, b.events)
	}
	return collect, []dip.RunOption{dip.WithTracer(tr)}
}

func run(quick bool, seed int64, jsonOut bool, traceFile, cpuProfile, memProfile string) error {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dipbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dipbench: memprofile:", err)
			}
		}()
	}

	b := &bench{jsonOut: jsonOut, reg: obs.NewRegistry(), seed: seed}
	if jsonOut {
		b.enc = json.NewEncoder(os.Stdout)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := io.Writer(f)
		b.events = obs.NewNDJSON(bw)
		defer func() {
			if err := b.events.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "dipbench: trace:", err)
			}
		}()
	}

	sizes := []int{256, 1024, 4096, 16384, 65536}
	deltas := []int{4, 8, 16, 32, 64, 128, 256}
	lens := []int{16, 64, 256, 1024, 4096}
	if quick {
		sizes = []int{256, 4096, 32768}
		deltas = []int{4, 32, 256}
		lens = []int{16, 256, 2048}
	}

	// Size sweeps: one table per registered protocol, menu built from the
	// internal/protocol registry. Each point generates the descriptor's
	// natural instance family and reports the measured proof size next to
	// the declared theorem bound.
	for _, d := range protocol.All() {
		name := fmt.Sprintf("%s %s (%s): size sweep", d.Suite, d.Name, d.Theorem)
		if !jsonOut {
			fmt.Printf("\n== %s ==\n", name)
			fmt.Printf("%10s %8s %12s %12s %10s %12s\n", "n", "rounds", "proof bits", "bound bits", "verdict", "wall")
		}
		for _, n := range sizes {
			cs := childSeed(seed, d.Suite, n)
			collect, opts := b.tracedOpts()
			row, err := exp.Protocol(d, gen.FamilySpec{Family: d.Family, N: n, ChordProb: -1}, cs, opts...)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", name, n, err)
			}
			if jsonOut {
				if err := b.row(map[string]any{
					"type":       "sweep_point",
					"suite":      d.Suite,
					"name":       name,
					"protocol":   d.Name,
					"n":          row.N,
					"seed":       cs,
					"rounds":     row.Rounds,
					"proof_bits": row.Bits,
					"bound_bits": row.BoundBits,
					"accepted":   row.Accepted,
					"wall_ns":    row.Wall.Nanoseconds(),
					"runs":       runMetricsJSON(collect.Runs()),
				}); err != nil {
					return err
				}
				continue
			}
			verdict := "accept"
			if !row.Accepted {
				verdict = "REJECT"
			}
			fmt.Printf("%10d %8d %12d %12d %10s %12s\n", row.N, row.Rounds, row.Bits, row.BoundBits, verdict, row.Wall.Round(time.Millisecond))
		}
	}

	// E8 exercises the LR-sorting subroutine (Lemma 4.1), not a
	// registered protocol, so it keeps its dedicated sweep.
	if !jsonOut {
		fmt.Printf("\n== E8 LR-sorting (Lemma 4.1) ==\n")
		fmt.Printf("%10s %8s %12s %10s %12s\n", "n", "rounds", "proof bits", "verdict", "wall")
	}
	for _, n := range sizes {
		cs := childSeed(seed, "E8", n)
		rng := rand.New(rand.NewSource(cs))
		collect, opts := b.tracedOpts()
		row, err := exp.E8LRSort(rng, n, opts...)
		if err != nil {
			return fmt.Errorf("E8 n=%d: %w", n, err)
		}
		if jsonOut {
			if err := b.row(map[string]any{
				"type": "sweep_point", "suite": "E8", "name": "E8 LR-sorting (Lemma 4.1)",
				"n": row.N, "seed": cs, "rounds": row.Rounds, "proof_bits": row.Bits,
				"accepted": row.Accepted, "wall_ns": row.Wall.Nanoseconds(),
				"runs": runMetricsJSON(collect.Runs()),
			}); err != nil {
				return err
			}
			continue
		}
		verdict := "accept"
		if !row.Accepted {
			verdict = "REJECT"
		}
		fmt.Printf("%10d %8d %12d %10s %12s\n", row.N, row.Rounds, row.Bits, verdict, row.Wall.Round(time.Millisecond))
	}

	if !jsonOut {
		fmt.Printf("\n== E4 planarity, Δ sweep at n ≈ 2048 (Thm 1.5) ==\n")
		fmt.Printf("%8s %10s %12s %16s %10s\n", "Δ", "n", "proof bits", "rotation bits", "verdict")
	}
	planarity, ok := protocol.Get("planarity")
	if !ok {
		return fmt.Errorf("E4: planarity is not registered")
	}
	for _, delta := range deltas {
		cs := childSeed(seed, "E4", delta)
		collect, opts := b.tracedOpts()
		row, err := exp.Protocol(planarity, gen.FamilySpec{Family: "fanchain", N: 2048, Delta: delta}, cs, opts...)
		if err != nil {
			return fmt.Errorf("E4 delta=%d: %w", delta, err)
		}
		if jsonOut {
			if err := b.row(map[string]any{
				"type": "sweep_point", "suite": "E4", "name": "E4 planarity Δ-sweep (Thm 1.5)",
				"n": row.N, "delta": delta, "seed": cs,
				"proof_bits": row.Bits, "rotation_bits": row.RotationBits,
				"accepted": row.Accepted, "wall_ns": row.Wall.Nanoseconds(),
				"runs": runMetricsJSON(collect.Runs()),
			}); err != nil {
				return err
			}
			continue
		}
		verdict := "accept"
		if !row.Accepted {
			verdict = "REJECT"
		}
		fmt.Printf("%8d %10d %12d %16d %10s\n", delta, row.N, row.Bits, row.RotationBits, verdict)
	}

	if !jsonOut {
		fmt.Printf("\n== E7 one-round lower bound (Thm 1.8): cut-and-paste threshold ==\n")
		fmt.Printf("%10s %10s %16s %8s\n", "path len", "n", "threshold bits", "log2 n")
	}
	for _, l := range lens {
		start := time.Now()
		row, err := exp.E7LowerBound(l)
		if err != nil {
			return fmt.Errorf("E7 l=%d: %w", l, err)
		}
		if jsonOut {
			// Analytic row: no protocol executes, so runs is empty — kept
			// present so `.runs[]` iterates uniformly over sweep points.
			if err := b.row(map[string]any{
				"type": "sweep_point", "suite": "E7", "name": "E7 one-round lower bound (Thm 1.8)",
				"path_len": row.PathLen, "n": row.N, "threshold_bits": row.Threshold, "log2_n": row.Log2N,
				"wall_ns": time.Since(start).Nanoseconds(), "runs": []any{},
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%10d %10d %16d %8d\n", row.PathLen, row.N, row.Threshold, row.Log2N)
	}

	if !jsonOut {
		fmt.Printf("\n== E9 spanning-tree verification amplification (Lemma 2.5) ==\n")
		fmt.Printf("%8s %8s %12s %12s\n", "reps", "runs", "accept rate", "2^-reps")
	}
	for _, reps := range []int{1, 2, 4, 8} {
		cs := childSeed(seed, "E9", reps)
		row, err := exp.E9SpanTree(rand.New(rand.NewSource(cs)), reps, 400)
		if err != nil {
			return err
		}
		if jsonOut {
			if err := b.row(map[string]any{
				"type": "soundness", "suite": "E9", "name": row.Name, "seed": cs,
				"runs": row.Runs, "accepts": row.Accepts, "accept_rate": row.Rate, "bound": row.Bound,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%8d %8d %12.4f %12.4f\n", reps, row.Runs, row.Rate, row.Bound)
	}

	if !jsonOut {
		fmt.Printf("\n== E10 multiset equality soundness (Lemma 2.6) ==\n")
		fmt.Printf("%8s %8s %12s %12s\n", "k", "runs", "accept rate", "k/p")
	}
	for _, k := range []int{4, 16, 64} {
		cs := childSeed(seed, "E10", k)
		row, err := exp.E10Multiset(rand.New(rand.NewSource(cs)), k, 400)
		if err != nil {
			return err
		}
		if jsonOut {
			if err := b.row(map[string]any{
				"type": "soundness", "suite": "E10", "name": row.Name, "seed": cs,
				"runs": row.Runs, "accepts": row.Accepts, "accept_rate": row.Rate, "bound": row.Bound,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%8d %8d %12.4f %12.6f\n", k, row.Runs, row.Rate, row.Bound)
	}

	if !jsonOut {
		fmt.Printf("\n== Ablation: soundness exponent c (LR-sorting, n = 4096) ==\n")
		fmt.Printf("%4s %10s %12s %8s %14s %12s\n", "c", "field p0", "proof bits", "runs", "liar accepts", "~1/p0")
	}
	ablRuns := 400
	if quick {
		ablRuns = 150
	}
	for _, c := range []int{1, 2, 3, 4} {
		cs := childSeed(seed, "ablation", c)
		row, err := exp.AblationExponent(rand.New(rand.NewSource(cs)), 4096, c, ablRuns)
		if err != nil {
			return err
		}
		if jsonOut {
			if err := b.row(map[string]any{
				"type": "ablation", "suite": "ablation", "c": row.C, "seed": cs,
				"field_p0": row.FieldP0, "proof_bits": row.ProofBits,
				"runs": row.Runs, "accepts": row.Accepts, "accept_rate": row.Rate, "bound": row.Bound,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%4d %10d %12d %8d %14.4f %12.6f\n", row.C, row.FieldP0, row.ProofBits, row.Runs, row.Rate, row.Bound)
	}

	// Terminal summary row: the metrics-registry counters accumulated by
	// every traced execution of the suite.
	if jsonOut {
		counters := map[string]int64{}
		for _, name := range b.reg.Names() {
			counters[name] = b.reg.Get(name)
		}
		if err := b.row(map[string]any{"type": "summary", "seed": seed, "quick": quick, "counters": counters}); err != nil {
			return err
		}
	}
	return nil
}
