package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheDoTable drives the hit/miss/eviction state machine through a
// scripted sequence on a capacity-2 cache.
func TestCacheDoTable(t *testing.T) {
	c := NewCache(2)
	var computes atomic.Int64
	get := func(key string) (*Response, Outcome) {
		resp, outcome, err := c.Do(RequestKey(key), func() (*Response, error) {
			computes.Add(1)
			return &Response{Key: key}, nil
		})
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		if resp.Key != key {
			t.Fatalf("Do(%s) returned response for %s", key, resp.Key)
		}
		return resp, outcome
	}

	steps := []struct {
		key         string
		wantOutcome Outcome
		wantCompute int64
		wantLen     int
	}{
		{"a", Computed, 1, 1}, // cold miss
		{"a", Hit, 1, 1},      // hit
		{"b", Computed, 2, 2}, // second key
		{"a", Hit, 2, 2},      // still resident, now MRU
		{"c", Computed, 3, 2}, // evicts LRU = b
		{"a", Hit, 3, 2},      // a survived
		{"b", Computed, 4, 2}, // b was evicted -> recompute, evicts c
		{"c", Computed, 5, 2}, // c evicted too
	}
	for i, st := range steps {
		_, outcome := get(st.key)
		if outcome != st.wantOutcome {
			t.Fatalf("step %d (%s): outcome %v, want %v", i, st.key, outcome, st.wantOutcome)
		}
		if n := computes.Load(); n != st.wantCompute {
			t.Fatalf("step %d (%s): %d computes, want %d", i, st.key, n, st.wantCompute)
		}
		if l := c.Len(); l != st.wantLen {
			t.Fatalf("step %d (%s): cache len %d, want %d", i, st.key, l, st.wantLen)
		}
	}
}

// TestCacheSingleflightDedup: G concurrent callers of one key must
// share exactly one computation — one Computed leader, G-1 Shared
// followers — and the value must land in the cache once.
func TestCacheSingleflightDedup(t *testing.T) {
	c := NewCache(8)
	const callers = 16
	gate := make(chan struct{})
	var computes, shared, computed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, outcome, err := c.Do("k", func() (*Response, error) {
				<-gate // hold every follower in the in-flight window
				computes.Add(1)
				return &Response{Key: "k", ProofSizeBits: 42}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.ProofSizeBits != 42 {
				t.Errorf("wrong response shared: %+v", resp)
			}
			switch outcome {
			case Shared:
				shared.Add(1)
			case Computed:
				computed.Add(1)
			case Hit:
				// A caller that arrived after the leader stored the
				// result sees a plain hit; legal, just not shared.
			}
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("%d computations for one key, want 1", computes.Load())
	}
	if computed.Load() != 1 {
		t.Fatalf("%d leaders, want 1", computed.Load())
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d, want 1", c.Len())
	}
}

// TestCacheErrorNotCached: a failed computation must not poison the
// key — the next caller recomputes.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	_, _, err := c.Do("k", func() (*Response, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len %d", c.Len())
	}
	resp, outcome, err := c.Do("k", func() (*Response, error) { return &Response{Key: "k"}, nil })
	if err != nil || resp == nil || outcome != Computed {
		t.Fatalf("retry after error: resp=%v outcome=%v err=%v", resp, outcome, err)
	}
}

// TestCacheZeroCapacity keeps singleflight but retains nothing.
func TestCacheZeroCapacity(t *testing.T) {
	c := NewCache(-1)
	for i := 0; i < 3; i++ {
		_, outcome, err := c.Do("k", func() (*Response, error) { return &Response{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		if outcome != Computed {
			t.Fatalf("iteration %d: outcome %v, want Computed every time", i, outcome)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("capacity<=0 cache retained %d entries", c.Len())
	}
}

// TestCachePut pins the ledger-replay path: an existing entry wins over
// a Put, a Put entry serves as a Hit and takes part in LRU eviction,
// and a cache with capacity <= 0 ignores Put.
func TestCachePut(t *testing.T) {
	c := NewCache(2)
	c.Do("a", func() (*Response, error) { return &Response{Key: "computed"}, nil })
	c.Put("a", &Response{Key: "replayed"})
	c.Put("b", &Response{Key: "b"})
	for _, key := range []string{"a", "b"} {
		resp, outcome, _ := c.Do(RequestKey(key), func() (*Response, error) { t.Fatal("recomputed"); return nil, nil })
		if outcome != Hit {
			t.Fatalf("%s: outcome %v, want Hit", key, outcome)
		}
		if key == "a" && resp.Key != "computed" {
			t.Fatalf("Put replaced the existing entry: %q", resp.Key)
		}
	}
	c.Put("c", &Response{Key: "c"}) // evicts the LRU entry, a
	if _, outcome, _ := c.Do("a", func() (*Response, error) { return &Response{}, nil }); outcome != Computed || c.Len() != 2 {
		t.Fatalf("after eviction: outcome %v, len %d", outcome, c.Len())
	}
	off := NewCache(0)
	off.Put("a", &Response{})
	if off.Len() != 0 {
		t.Fatalf("capacity-0 cache kept %d entries", off.Len())
	}
}
