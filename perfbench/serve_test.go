package main

import (
	"testing"
	"time"
)

// One sender, a request every millisecond, and request 2 stalls for
// 40ms: every later request goes out late, and its latency, counted from
// its due time, includes the wait the stall imposed on it.
func TestOpenLoopCountsLatencyFromDueTime(t *testing.T) {
	const stall = 40 * time.Millisecond
	times := openLoop(10, 1000, 1, func(i int) bool {
		if i == 2 {
			time.Sleep(stall)
		}
		return true
	})
	for i, tm := range times {
		if tm.due != time.Duration(i)*time.Millisecond {
			t.Errorf("request %d due at %v", i, tm.due)
		}
	}
	for i := 3; i < 10; i++ {
		floor := 2*time.Millisecond + stall - times[i].due
		if times[i].latency() < floor {
			t.Errorf("request %d: latency %v below the %v its wait imposed", i, times[i].latency(), floor)
		}
		if times[i].sent-times[i].due < floor {
			t.Errorf("request %d: lag %v below %v", i, times[i].sent-times[i].due, floor)
		}
	}
}

// The schedule's shape does not depend on the seed: every seed sends
// the same number of requests of each protocol and kind.
func TestPlanShapeIsFixed(t *testing.T) {
	shape := func(seed int64) map[string]int {
		p, err := makePlan(seed, 600, 50)
		if err != nil {
			t.Fatal(err)
		}
		n := map[string]int{}
		for _, s := range p.sends {
			n[p.distinct[s.distinct].req.Protocol+"/"+s.kind]++
		}
		for _, s := range p.sends {
			d := p.distinct[s.distinct]
			if s.kind != kindRepeat && d.req.Protocol != p.specs[d.spec].proto {
				t.Fatalf("request for %s on a %s instance", d.req.Protocol, p.specs[d.spec].proto)
			}
		}
		return n
	}
	a, b := shape(1), shape(2)
	if len(a) != 3*len(protocols) {
		t.Errorf("plan has %d protocol/kind groups, want %d", len(a), 3*len(protocols))
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %d requests with seed 1, %d with seed 2", k, v, b[k])
		}
	}
}
