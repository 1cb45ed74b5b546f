package serve

import "sync"

// Cache is an LRU result cache with singleflight deduplication: at most
// one computation per key runs at a time, concurrent requests for the
// same key wait for the leader's result, and successful results are
// retained up to the capacity with least-recently-used eviction.
// Failed computations are never cached, so transient errors (queue
// full, deadline exceeded) do not poison the key.
type Cache struct {
	mu       sync.Mutex
	store    lru[*Response]
	inflight map[RequestKey]*flight
}

type flight struct {
	done chan struct{}
	val  *Response
	err  error
}

// NewCache returns a cache holding up to capacity responses;
// capacity <= 0 disables retention but keeps singleflight dedup.
func NewCache(capacity int) *Cache {
	return &Cache{store: newLRU[*Response](capacity), inflight: make(map[RequestKey]*flight)}
}

// Outcome classifies how a Do call was served, for metrics.
type Outcome int

const (
	// Computed: this call ran fn itself (cache miss, singleflight leader).
	Computed Outcome = iota
	// Hit: served from the LRU store without running fn.
	Hit
	// Shared: waited on a concurrent identical request's computation.
	Shared
)

// Do returns the response for key, running fn at most once across all
// concurrent callers with the same key. The returned Outcome reports
// whether the value came from the store, a shared in-flight
// computation, or a fresh run of fn.
func (c *Cache) Do(key RequestKey, fn func() (*Response, error)) (*Response, Outcome, error) {
	c.mu.Lock()
	if val, ok := c.store.get(key); ok {
		c.mu.Unlock()
		return val, Hit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, Shared, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()
	close(f.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.store.add(key, f.val)
	}
	c.mu.Unlock()
	return f.val, Computed, f.err
}

// Put inserts a response directly, bypassing singleflight — the boot
// path replaying the persisted ledger into the cache. An existing
// entry wins (it may carry richer data, e.g. round stats); retention
// disabled means no-op.
func (c *Cache) Put(key RequestKey, val *Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store.add(key, val)
}

// Len returns the number of cached responses.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.len()
}
