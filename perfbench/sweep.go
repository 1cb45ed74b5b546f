package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/protocol"
	"repro/internal/soundness"
)

// soundness-sweep: repeated soundness.Estimate calls over every protocol
// and every chaos strategy at the estimator's default sizes with a fixed
// number of runs per cell. Thousands of small runs, most on no-instances
// under fault injection, so fixed per-run costs dominate.
//
// A sweep is one Estimate call per protocol, in the estimator's own
// protocol order, so its rows equal one all-protocol call. Sweep k of a
// run uses estimator seed seed + k*sweepSeedStride, so a run averages
// over several instance sets: the instances of one seed decide how early
// the verifiers reject, and with one set per run that choice, not the
// code, would set the run-to-run spread.
const (
	sweepRuns       = 40
	sweepSeedStride = 1000003
	// referenceSeed is the seed whose first sweep is recorded in
	// testdata: a run with this seed must reproduce it exactly.
	referenceSeed = 1
	// minSoundness bounds each (protocol, strategy) rejection rate pooled
	// over a run's sweeps and sizes. A single 40-run cell is too small a
	// sample for it: pathouter under crash-accept rejects 35 of 40 on
	// about one cell in 300.
	minSoundness = 0.9
)

//go:embed testdata/sweep_rows_seed1.ndjson
var referenceRows []byte

// sweepCall is one soundness.Estimate call: one protocol, all strategies.
type sweepCall struct {
	protocol string
	rows     []soundness.Row
	trials   int
	wall     time.Duration
}

func estimate(ctx context.Context, name string, seed int64, runs int) (sweepCall, error) {
	t0 := time.Now()
	rows, err := soundness.Estimate(ctx, soundness.Config{Protocols: []string{name}, Runs: runs, Seed: seed})
	c := sweepCall{protocol: name, rows: rows, wall: time.Since(t0)}
	if err != nil {
		return c, fmt.Errorf("estimate %s: %w", name, err)
	}
	for _, r := range rows {
		c.trials += r.Runs
	}
	return c, nil
}

func encodeRows(rows []soundness.Row) []byte {
	var b bytes.Buffer
	soundness.WriteNDJSON(&b, rows) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// sweepChecks accumulates the output checks of a run's sweeps.
type sweepChecks struct {
	rejects, trials map[string]int // protocol/strategy -> pooled counts
}

// add checks one call's rows: completeness cells reject no honest run.
// It returns the number of trials in rows that failed the check.
func (sc *sweepChecks) add(res *result, rows []soundness.Row) int {
	if sc.rejects == nil {
		sc.rejects, sc.trials = map[string]int{}, map[string]int{}
	}
	failed := 0
	for _, r := range rows {
		if r.Kind == "completeness" {
			if !res.expect("completeness_rejects_none", r.Rejects == 0, "%s n=%d rejected %d of %d honest runs", r.Protocol, r.N, r.Rejects, r.Runs) {
				failed += r.Runs
			}
			continue
		}
		key := r.Protocol + "/" + r.Strategy
		sc.rejects[key] += r.Rejects
		sc.trials[key] += r.Runs
	}
	return failed
}

// finish checks the pooled soundness rates and returns the number of
// trials behind the rates that fell short.
func (sc *sweepChecks) finish(res *result) int {
	failed := 0
	for key, n := range sc.trials {
		rate := float64(sc.rejects[key]) / float64(n)
		if !res.expect("soundness_rate_min", rate >= minSoundness, "%s rejected %.3f of %d runs, want >= %.1f", key, rate, n, minSoundness) {
			failed += n
		}
	}
	return failed
}

// sweepLoop runs whole sweeps while the next one is expected to end
// within budget (at least one), checking every call; each receives a
// sweep's calls. It returns the rows of sweep 0, the one with the run's
// own seed.
func sweepLoop(ctx context.Context, res *result, seed int64, budget time.Duration, each func(calls []sweepCall)) (first []soundness.Row, elapsed time.Duration, err error) {
	var sc sweepChecks
	start := time.Now()
	var last time.Duration
	for k := 0; k == 0 || time.Since(start)+last <= budget; k++ {
		s0 := time.Now()
		var calls []sweepCall
		for _, name := range protocol.Names() {
			c, err := estimate(ctx, name, seed+int64(k)*sweepSeedStride, sweepRuns)
			if err != nil {
				return nil, 0, err
			}
			if k == 0 {
				first = append(first, c.rows...)
			}
			res.attempted += c.trials
			res.failed += sc.add(res, c.rows)
			calls = append(calls, c)
		}
		if k == 0 && seed == referenceSeed && !res.expect("rows_match_reference", bytes.Equal(encodeRows(first), referenceRows),
			"rows differ from testdata/sweep_rows_seed1.ndjson") {
			res.failed += len(first) * sweepRuns
		}
		last = time.Since(s0)
		each(calls)
	}
	elapsed = time.Since(start)
	res.failed += sc.finish(res)
	return first, elapsed, nil
}

func runSweep(ctx context.Context, cfg config) (*result, error) {
	res := &result{metrics: metrics{}}
	if cfg.trace {
		return traceSweep(ctx, cfg, res)
	}
	// Set-up is a one-run-per-cell sweep: it builds every cell's
	// instance and warms every code path the timed sweeps take.
	setups, err := repeatSetup(3, 2*time.Second, func(int) (time.Duration, error) {
		t0 := time.Now()
		for _, name := range protocol.Names() {
			if _, err := estimate(ctx, name, cfg.seed, 1); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	perTrial := map[string][]float64{}
	var perSweep []float64
	_, elapsed, err := sweepLoop(ctx, res, cfg.seed, cfg.seconds, func(calls []sweepCall) {
		var wall time.Duration
		trials := 0
		for _, c := range calls {
			perTrial[c.protocol] = append(perTrial[c.protocol], msOf(int64(c.wall))/float64(c.trials))
			wall += c.wall
			trials += c.trials
		}
		perSweep = append(perSweep, msOf(int64(wall))/float64(trials))
	})
	if err != nil {
		return nil, err
	}
	m := res.metrics
	m.set("setup_s", "s", median(setups), len(setups))
	m.set("ops_per_s", "1/s", float64(res.attempted-res.failed)/elapsed.Seconds(), res.attempted)
	m.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	m.set("latency_p50_ms", "ms", median(perSweep), len(perSweep))
	for _, p := range protocols {
		m.set("run_ms."+p, "ms", median(perTrial[p]), len(perTrial[p]))
	}
	return res, nil
}

// traceSweep measures untraced sweeps for half the budget (runtime, pool
// and freeze counters, untraced time per trial), then replays one sweep
// cell by cell through Descriptor.Run with chaos adversaries and the
// recording tracer, because soundness.Config takes no tracer.
func traceSweep(ctx context.Context, cfg config, res *result) (*result, error) {
	m := res.metrics
	mem, pool, freezes := memStats(), dip.PoolStats(), dip.FreezeCount()
	untraced := map[string]float64{} // protocol -> summed wall ns
	trials := map[string]int{}
	rows, _, err := sweepLoop(ctx, res, cfg.seed, cfg.seconds/2, func(calls []sweepCall) {
		for _, c := range calls {
			untraced[c.protocol] += float64(c.wall)
			trials[c.protocol] += c.trials
		}
	})
	if err != nil {
		return nil, err
	}
	ops := res.attempted
	m.setGo(memSince(mem), ops)
	m.setPool(pool, ops)
	m.ratio("dip.freezes", "count/op", float64(dip.FreezeCount()-freezes), float64(ops), ops)
	// The replayed sweep 0 fixes the counts: they repeat exactly for a
	// seed.
	rejects := 0
	for _, r := range rows {
		rejects += r.Rejects
	}
	m.set("soundness.rejects", "count", float64(rejects), len(rows))

	rec := newRecorder()
	res.trace = rec
	rp, err := replay(ctx, res, rec, rows)
	if err != nil {
		return nil, err
	}
	m.set("chaos.mutations", "count", float64(rec.mutations), rp.trials)
	m.set("gen.build_ms", "ms", median(rp.builds), len(rp.builds))
	rp.headroom.set(m)
	m.setPhases(rec.phases())
	// Tracing overhead: summed per-protocol traced time per trial over
	// the untraced one, minus 1. Both include the per-cell builds.
	var traced, plain float64
	for p, ns := range rp.wall {
		traced += ns / float64(rp.perProto[p]) / 1e6
		plain += untraced[p] / float64(trials[p]) / 1e6
	}
	m.ratio("trace.overhead_frac", "ratio", traced-plain, plain, rp.trials)
	return res, nil
}

type replayed struct {
	trials   int
	builds   []float64
	wall     map[string]float64 // protocol -> wall ns
	perProto map[string]int     // protocol -> trials
	headroom headrooms
}

// replay re-runs the cells of rows the way soundness.Estimate does (same
// instances, seeds and adversaries), traced, and checks that every cell
// rejects exactly as often as the estimator reported.
func replay(ctx context.Context, res *result, rec *recorder, rows []soundness.Row) (*replayed, error) {
	rp := &replayed{wall: map[string]float64{}, perProto: map[string]int{}, headroom: headrooms{}}
	for _, row := range rows {
		d, _ := protocol.Get(row.Protocol)
		c0 := time.Now()
		b0 := time.Now()
		inst, err := cellInstance(row.Family, row.N, row.Seed)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", row.Family, err)
		}
		rp.builds = append(rp.builds, msOf(int64(time.Since(b0))))
		bound := d.ProofSizeBound(inst.G.N(), inst.G.MaxDegree())
		rejects := 0
		for i := 0; i < row.Runs; i++ {
			opts := []dip.RunOption{dip.WithTracer(rec)}
			if row.Strategy != "" {
				adv, err := chaos.New(row.Strategy, row.Seed+int64(i))
				if err != nil {
					return nil, err
				}
				opts = append(opts, dip.WithAdversary(adv))
			}
			rec.Begin(row.Protocol)
			out, err := d.Run(ctx, inst, row.Seed+int64(i), opts...)
			rec.End()
			res.attempted++
			switch {
			case err != nil || !out.Accepted:
				rejects++
			case row.Kind == "completeness":
				rp.headroom.add(row.Protocol, out.ProofSizeBits, bound)
			}
		}
		if !res.expect("replay_matches_estimate", rejects == row.Rejects,
			"%s/%s/%s n=%d: replay rejected %d, estimator %d", row.Protocol, row.Kind, row.Strategy, row.N, rejects, row.Rejects) {
			res.failed += row.Runs
		}
		rp.trials += row.Runs
		rp.perProto[row.Protocol] += row.Runs
		rp.wall[row.Protocol] += float64(time.Since(c0))
	}
	return rp, nil
}

// cellInstance builds a sweep cell's instance exactly as the soundness
// estimator does: the family at n from the cell seed, retrying a few
// derived seeds because the twisted family can fail on unlucky draws.
func cellInstance(family string, n int, seed int64) (*protocol.Instance, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		spec := gen.FamilySpec{Family: family, N: n, ChordProb: -1}
		g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(seed + int64(attempt)*0x9e3779b9)))
		if err != nil {
			lastErr = err
			continue
		}
		return &protocol.Instance{G: g, PathPos: pos, Rotation: rot}, nil
	}
	return nil, lastErr
}
