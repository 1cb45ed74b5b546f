package main

import (
	"testing"

	"repro/internal/obs"
)

// clock is a settable fake time source in nanoseconds.
type clock struct{ t int64 }

func (c *clock) now() int64 { return c.t }

// emitAt emits ev at time t.
func emitAt(c *clock, r *recorder, t int64, kind obs.EventKind, span, engine string) {
	c.t = t
	r.Emit(obs.Event{Kind: kind, Span: span, Engine: engine})
}

// A composite at the root runs two engine subruns; the split must come
// out as: pre = call to first RunStart, prove/coins = round spans, decide
// = last round end to first NodeDecide per run, glue = composite minus
// its subruns.
func TestPhasesOfHandBuiltTree(t *testing.T) {
	c := &clock{}
	r := newRecorderClock(c.now)
	r.Begin("outerplanar")
	emitAt(c, r, 10, obs.RunStart, "", obs.EngineComposite)
	emitAt(c, r, 20, obs.RunStart, "structural", obs.EngineRunner)
	emitAt(c, r, 20, obs.ProverRoundStart, "structural", obs.EngineRunner)
	emitAt(c, r, 30, obs.ProverRoundEnd, "structural", obs.EngineRunner)
	emitAt(c, r, 30, obs.VerifierRoundStart, "structural", obs.EngineRunner)
	emitAt(c, r, 35, obs.VerifierRoundEnd, "structural", obs.EngineRunner)
	emitAt(c, r, 45, obs.NodeDecide, "structural", obs.EngineRunner)
	emitAt(c, r, 46, obs.NodeDecide, "structural", obs.EngineRunner)
	emitAt(c, r, 50, obs.RunEnd, "structural", obs.EngineRunner)
	emitAt(c, r, 60, obs.RunStart, "component-0", obs.EngineRunner)
	emitAt(c, r, 60, obs.ProverRoundStart, "component-0", obs.EngineRunner)
	emitAt(c, r, 70, obs.ProverRoundEnd, "component-0", obs.EngineRunner)
	c.t = 72
	r.Emit(obs.Event{Kind: obs.AdversaryAct, Span: "component-0", Mutations: 3})
	emitAt(c, r, 75, obs.NodeDecide, "component-0", obs.EngineRunner)
	emitAt(c, r, 80, obs.RunEnd, "component-0", obs.EngineRunner)
	emitAt(c, r, 95, obs.RunEnd, "", obs.EngineComposite)
	c.t = 100
	r.End()

	ps := r.phases()
	if len(ps) != 1 {
		t.Fatalf("%d ops, want 1", len(ps))
	}
	want := phases{
		Label: "outerplanar", Wall: 100, Pre: 10, Prove: 20, Coins: 5,
		Decide:  (45 - 35) + (75 - 70),
		Glue:    85 - 30 - 20,
		Subruns: 2,
	}
	if ps[0] != want {
		t.Errorf("phases = %+v\nwant     %+v", ps[0], want)
	}
	if r.mutations != 3 {
		t.Errorf("counted %d mutations, want 3", r.mutations)
	}
}

// A run without rounds decides from its start; a composite that runs its
// engine at its own span path (planarity around embedding's root run)
// still nests the run under the composite; a second op starts a fresh
// tree.
func TestNestingAtTheSamePath(t *testing.T) {
	c := &clock{}
	r := newRecorderClock(c.now)
	r.Begin("pls")
	emitAt(c, r, 0, obs.RunStart, "", obs.EngineRunner)
	emitAt(c, r, 3, obs.NodeDecide, "", obs.EngineRunner) // no rounds: decide counts from the run's start
	emitAt(c, r, 4, obs.RunEnd, "", obs.EngineRunner)
	c.t = 4
	r.End()
	r.Begin("planarity")
	emitAt(c, r, 10, obs.RunStart, "", obs.EngineComposite)
	emitAt(c, r, 12, obs.RunStart, "", obs.EngineRunner)
	emitAt(c, r, 18, obs.RunEnd, "", obs.EngineRunner)
	emitAt(c, r, 20, obs.RunEnd, "", obs.EngineComposite)
	c.t = 20
	r.End()
	ps := r.phases()
	if len(ps) != 2 {
		t.Fatalf("%d ops, want 2", len(ps))
	}
	if ps[0].Glue != 0 || ps[0].Subruns != 1 || ps[0].Pre != 0 || ps[0].Wall != 4 || ps[0].Decide != 3 {
		t.Errorf("first op = %+v", ps[0])
	}
	if ps[1].Glue != 10-6 || ps[1].Subruns != 1 || ps[1].Pre != 10-4 {
		t.Errorf("second op = %+v, want glue 4, pre 6, 1 subrun", ps[1])
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 40, Parent: 0},
		{Start: 30, End: 50, Parent: 0},  // overlaps the previous child
		{Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	if got := selfTimes(spans)[0]; got != 100-40-10 {
		t.Errorf("self time = %d, want 50", got)
	}
}
