package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span kinds. An op span wraps one call the benchmark makes (one
// Descriptor.Run); everything else nests under it by the engine's Span
// paths.
const (
	kindOp        = "op"        // the benchmark's call
	kindPre       = "pre"       // call to first RunStart: oracle fallbacks such as planar.Embed
	kindRun       = "run"       // one engine execution
	kindComposite = "composite" // a composite protocol around nested runs
	kindProve     = "prove"     // one prover round
	kindCoins     = "coins"     // one verifier (coin) round
	kindDecide    = "decide"    // end of the last round to the first NodeDecide
)

type span struct {
	Op     int    `json:"op"`
	Label  string `json:"label"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op
}

// recorder is an obs.Tracer that keeps the spans of traced operations in
// memory. Begin and End bracket one operation; the events the engines
// emit in between become spans under it. Of the NodeDecide events, one
// per node per run, only each run's first is used: it ends the decide
// span.
type recorder struct {
	mu  sync.Mutex
	now func() int64

	spans []span
	op    int // open op span, -1 between operations
	ops   []int
	ran   bool // the open op has seen a RunStart

	open    map[string][]int // Span path -> stack of open run spans
	round   map[int]int      // run span -> its open round span
	lastEnd map[int]int64    // run span -> end of its last round
	decided map[int]bool

	mutations int // summed over AdversaryAct events
}

func newRecorder() *recorder {
	origin := time.Now()
	return newRecorderClock(func() int64 { return int64(time.Since(origin)) })
}

func newRecorderClock(now func() int64) *recorder {
	return &recorder{now: now, op: -1}
}

func (r *recorder) add(kind string, start int64, parent int) int {
	r.spans = append(r.spans, span{Op: len(r.ops) - 1, Label: r.spans[r.op].Label, Kind: kind, Start: start, End: -1, Parent: parent})
	return len(r.spans) - 1
}

// Begin opens an op span labelled label (the protocol name).
func (r *recorder) Begin(label string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.op = len(r.spans)
	r.ops = append(r.ops, r.op)
	r.spans = append(r.spans, span{Op: len(r.ops) - 1, Label: label, Kind: kindOp, Start: r.now(), End: -1, Parent: -1})
	r.ran = false
	r.open = map[string][]int{}
	r.round = map[int]int{}
	r.lastEnd = map[int]int64{}
	r.decided = map[int]bool{}
}

// End closes the op span, and any span an error path left open.
func (r *recorder) End() {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.now()
	for i := r.op; i < len(r.spans); i++ {
		if r.spans[i].End < 0 {
			r.spans[i].End = t
		}
	}
	r.op = -1
}

// Emit implements obs.Tracer.
func (r *recorder) Emit(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.op < 0 {
		return
	}
	t := r.now()
	switch ev.Kind {
	case obs.RunStart:
		if !r.ran {
			r.ran = true
			pre := r.add(kindPre, r.spans[r.op].Start, r.op)
			r.spans[pre].End = t
		}
		parent := r.op
		if top, ok := r.top(ev.Span); ok {
			parent = top // a run nested at its parent's own path
		} else if top, ok := r.top(parentPath(ev.Span)); ok && ev.Span != "" {
			parent = top
		}
		kind := kindRun
		if ev.Engine == obs.EngineComposite {
			kind = kindComposite
		}
		r.open[ev.Span] = append(r.open[ev.Span], r.add(kind, t, parent))
	case obs.ProverRoundStart, obs.VerifierRoundStart:
		if run, ok := r.top(ev.Span); ok {
			kind := kindProve
			if ev.Kind == obs.VerifierRoundStart {
				kind = kindCoins
			}
			r.round[run] = r.add(kind, t, run)
		}
	case obs.ProverRoundEnd, obs.VerifierRoundEnd:
		if run, ok := r.top(ev.Span); ok {
			if i, open := r.round[run]; open {
				r.spans[i].End = t
				delete(r.round, run)
			}
			r.lastEnd[run] = t
		}
	case obs.NodeDecide:
		if run, ok := r.top(ev.Span); ok && !r.decided[run] {
			r.decided[run] = true
			from, ok := r.lastEnd[run]
			if !ok {
				from = r.spans[run].Start
			}
			d := r.add(kindDecide, from, run)
			r.spans[d].End = t
		}
	case obs.AdversaryAct:
		r.mutations += ev.Mutations
	case obs.RunEnd:
		if st := r.open[ev.Span]; len(st) > 0 {
			r.spans[st[len(st)-1]].End = t
			r.open[ev.Span] = st[:len(st)-1]
		}
	}
}

func (r *recorder) top(path string) (int, bool) {
	st := r.open[path]
	if len(st) == 0 {
		return 0, false
	}
	return st[len(st)-1], true
}

func parentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

// phases is the time split of one traced operation, in nanoseconds.
// Glue is the self time of composite spans: their duration minus the
// part their nested runs cover.
type phases struct {
	Label                   string
	Wall, Pre, Prove, Coins int64
	Decide, Glue, Subruns   int64
}

// selfTimes returns each span's duration minus the union of its
// children's intervals, clipped to the span.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, v := range iv {
			if v[0] > reach {
				reach = v[0]
			}
			if v[1] > reach {
				covered += v[1] - reach
				reach = v[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// phases returns the time split of every recorded operation, in order.
func (r *recorder) phases() []phases {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	out := make([]phases, len(r.ops))
	for i, s := range r.spans {
		p := &out[s.Op]
		d := s.End - s.Start
		switch s.Kind {
		case kindOp:
			p.Label, p.Wall = s.Label, d
		case kindPre:
			p.Pre += d
		case kindProve:
			p.Prove += d
		case kindCoins:
			p.Coins += d
		case kindDecide:
			p.Decide += d
		case kindComposite:
			p.Glue += self[i]
		case kindRun:
			p.Subruns++
		}
	}
	return out
}

// write streams every span as one JSON object per line.
func (r *recorder) write(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
