package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/protocol"
)

// certify-1e4: one caller in a closed loop runs the seven protocols in
// round-robin, each on an instance of its own generator family at
// n = 10^4, with the generator's witnesses and a fresh verifier seed per
// run. Per-node engine work dominates at this size.
//
// An untraced run sets up certifySets instance sets, one per set-up
// repetition, and its cycles rotate through them: run times differ by
// up to a quarter between two random instances of one family, and
// spreading each median over three instances keeps that difference from
// deciding the run-to-run spread.
const (
	certifyN    = 10000
	certifySets = 3
)

type certInst struct {
	d        *protocol.Descriptor
	inst     *protocol.Instance
	bound    int // ProofSizeBound(n, Δ)
	buildNS  int64
	warmupOK bool
}

// derive maps (seed, label) to a child seed (FNV-64a, the repository's
// child-seed idiom), so every input is a function of --seed alone.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, label)
	return int64(h.Sum64() & math.MaxInt64)
}

// setupCertify builds and freezes instance set number set, one instance
// per protocol, and runs each once untimed.
func setupCertify(ctx context.Context, seed int64, set int) ([]certInst, error) {
	out := make([]certInst, 0, len(protocols))
	for _, name := range protocols {
		d, _ := protocol.Get(name)
		t0 := time.Now()
		spec := gen.FamilySpec{Family: d.Family, N: certifyN, ChordProb: -1}
		g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(derive(seed, fmt.Sprintf("certify/%d/%s", set, name)))))
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", d.Family, err)
		}
		ci := certInst{d: d, inst: &protocol.Instance{G: g, PathPos: pos, Rotation: rot}, buildNS: int64(time.Since(t0))}
		ci.bound = d.ProofSizeBound(g.N(), g.MaxDegree())
		if _, err := dip.Freeze(ci.inst.DIP()); err != nil {
			return nil, fmt.Errorf("freeze %s: %w", d.Family, err)
		}
		warm, err := d.Run(ctx, ci.inst, derive(seed, fmt.Sprintf("warmup/%d/%s", set, name)))
		ci.warmupOK = err == nil && warm.Accepted
		out = append(out, ci)
	}
	return out, nil
}

// certifyLoop runs whole round-robin cycles, one run per protocol, cycle
// k on instance set k mod len(sets), while the next cycle is expected to
// end within budget (at least one cycle). It calls each for every run and
// returns the elapsed time and each cycle's wall time per run in ms.
func certifyLoop(sets [][]certInst, budget time.Duration, each func(cycle int, ci *certInst)) (time.Duration, []float64) {
	start := time.Now()
	var last time.Duration
	var perRun []float64
	for cycle := 0; cycle == 0 || time.Since(start)+last <= budget; cycle++ {
		c0 := time.Now()
		insts := sets[cycle%len(sets)]
		for i := range insts {
			each(cycle, &insts[i])
		}
		last = time.Since(c0)
		perRun = append(perRun, msOf(int64(last))/float64(len(insts)))
	}
	return time.Since(start), perRun
}

// certifyRun is one timed Descriptor.Run with its output checks.
func certifyRun(ctx context.Context, res *result, seed int64, cycle int, ci *certInst, opts ...dip.RunOption) (time.Duration, *protocol.Outcome) {
	name := ci.d.Name
	t0 := time.Now()
	out, err := ci.d.Run(ctx, ci.inst, derive(seed, fmt.Sprintf("run/%s/%d", name, cycle)), opts...)
	dt := time.Since(t0)
	res.attempted++
	ok := res.expect("run_ok."+name, err == nil, "%v", err)
	ok = ok && res.expect("accepted."+name, out.Accepted, "cycle %d rejected a yes-instance", cycle)
	ok = ok && res.expect("proof_within_bound."+name, out.ProofSizeBits <= ci.bound,
		"proof %d bits > bound %d", out.ProofSizeBits, ci.bound)
	if !ok {
		res.failed++
		return dt, nil
	}
	return dt, out
}

func runCertify(ctx context.Context, cfg config) (*result, error) {
	res := &result{metrics: metrics{}}
	n := certifySets
	if cfg.trace {
		n = 1
	}
	var sets [][]certInst
	setups, err := repeatSetup(n, 0, func(set int) (time.Duration, error) {
		t0 := time.Now()
		insts, err := setupCertify(ctx, cfg.seed, set)
		sets = append(sets, insts)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	for _, insts := range sets {
		for _, ci := range insts {
			res.expect("warmup_accepted."+ci.d.Name, ci.warmupOK, "warm-up run did not accept")
		}
	}
	if cfg.trace {
		return traceCertify(ctx, cfg, res, sets)
	}

	byProto := map[string][]float64{}
	elapsed, perRun := certifyLoop(sets, cfg.seconds, func(cycle int, ci *certInst) {
		dt, _ := certifyRun(ctx, res, cfg.seed, cycle, ci)
		byProto[ci.d.Name] = append(byProto[ci.d.Name], msOf(int64(dt)))
	})
	m := res.metrics
	m.set("setup_s", "s", median(setups), len(setups))
	m.set("ops_per_s", "1/s", float64(res.attempted-res.failed)/elapsed.Seconds(), res.attempted)
	m.set("peak_rss_mb", "MB", peakRSSMB(), 1)
	// A closed loop over seven protocols has no one run time; the
	// latency is the median over cycles of the wall time per run.
	m.set("latency_p50_ms", "ms", median(perRun), len(perRun))
	for _, p := range protocols {
		m.set("run_ms."+p, "ms", median(byProto[p]), len(byProto[p]))
	}
	return res, nil
}

// traceCertify splits the timed phase in two halves: untraced runs give
// the runtime, pool and freeze counters and the untraced wall time;
// traced runs give the per-phase split and the tracing overhead.
func traceCertify(ctx context.Context, cfg config, res *result, sets [][]certInst) (*result, error) {
	m := res.metrics
	var builds []float64
	for _, ci := range sets[0] {
		builds = append(builds, msOf(ci.buildNS))
	}
	m.set("gen.build_ms", "ms", median(builds), len(builds))

	untraced := map[string][]float64{}
	mem, pool, freezes := memStats(), dip.PoolStats(), dip.FreezeCount()
	ops := 0
	certifyLoop(sets, cfg.seconds/2, func(cycle int, ci *certInst) {
		dt, _ := certifyRun(ctx, res, cfg.seed, cycle, ci)
		untraced[ci.d.Name] = append(untraced[ci.d.Name], msOf(int64(dt)))
		ops++
	})
	m.setGo(memSince(mem), ops)
	m.setPool(pool, ops)
	m.ratio("dip.freezes", "count/op", float64(dip.FreezeCount()-freezes), float64(ops), ops)

	rec := newRecorder()
	res.trace = rec
	headroom := headrooms{}
	certifyLoop(sets, cfg.seconds/2, func(cycle int, ci *certInst) {
		rec.Begin(ci.d.Name)
		_, out := certifyRun(ctx, res, cfg.seed, cycle, ci, dip.WithTracer(rec))
		rec.End()
		if out != nil {
			headroom.add(ci.d.Name, out.ProofSizeBits, ci.bound)
		}
	})
	headroom.set(m)
	// Tracing overhead: summed per-protocol median traced wall time over
	// the untraced one, minus 1; its base is the untraced sum in ms.
	ps := rec.phases()
	var traced, plain float64
	for p, ws := range m.setPhases(ps) {
		if u := untraced[p]; len(u) > 0 {
			traced += median(ws)
			plain += median(u)
		}
	}
	m.ratio("trace.overhead_frac", "ratio", traced-plain, plain, len(ps))
	return res, nil
}

// headrooms tracks, per protocol, the largest proof size over the
// declared bound and the bound it was measured against.
type headrooms map[string][2]int // protocol -> {bits, bound}

func (h headrooms) add(protocol string, bits, bound int) {
	old, ok := h[protocol]
	if !ok || float64(bits)/float64(bound) > float64(old[0])/float64(old[1]) {
		h[protocol] = [2]int{bits, bound}
	}
}

func (h headrooms) set(m metrics) {
	for p, v := range h {
		m.ratio("proof.headroom."+p, "ratio", float64(v[0]), float64(v[1]), 1)
	}
}

// setPool records the engine worker pool's busy share and steals per op
// since before.
func (m metrics) setPool(before dip.PoolStatsSnapshot, ops int) {
	after := dip.PoolStats()
	busy, idle := after.BusyNS-before.BusyNS, after.IdleNS-before.IdleNS
	m.ratio("pool.busy_frac", "ratio", float64(busy), float64(busy+idle), ops)
	m.ratio("pool.steals_per_op", "count/op", float64(after.Steals-before.Steals), float64(ops), ops)
}

// setPhases records the per-protocol medians of the traced phase split
// and the subruns per op. It returns the traced ops' wall times in ms by
// protocol.
func (m metrics) setPhases(ps []phases) map[string][]float64 {
	by := map[string][]phases{}
	walls := map[string][]float64{}
	var subruns int64
	for _, p := range ps {
		by[p.Label] = append(by[p.Label], p)
		walls[p.Label] = append(walls[p.Label], msOf(p.Wall))
		subruns += p.Subruns
	}
	pick := func(xs []phases, f func(phases) int64) float64 {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = msOf(f(x))
		}
		return median(v)
	}
	for p, xs := range by {
		m.set("dip.prove_ms."+p, "ms", pick(xs, func(x phases) int64 { return x.Prove }), len(xs))
		m.set("dip.coins_ms."+p, "ms", pick(xs, func(x phases) int64 { return x.Coins }), len(xs))
		m.set("dip.decide_ms."+p, "ms", pick(xs, func(x phases) int64 { return x.Decide }), len(xs))
		m.set("dip.glue_ms."+p, "ms", pick(xs, func(x phases) int64 { return x.Glue }), len(xs))
	}
	m.ratio("dip.subruns_per_op", "count/op", float64(subruns), float64(len(ps)), len(ps))
	return walls
}
