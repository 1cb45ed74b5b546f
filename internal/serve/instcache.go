package serve

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/planar"
)

// InstanceKey is the instance-identity part of the canonical request
// hash: graph plus witnesses, with protocol and seed excluded. Requests
// that certify the same instance under different protocols or seeds —
// the ones the result cache cannot deduplicate — share an InstanceKey,
// which is what lets the service freeze each distinct instance once
// and run many.
func InstanceKey(n int, edges []graph.Edge, witness []int, rot *planar.Rotation) RequestKey {
	return CanonicalKey("#instance", 0, n, edges, witness, rot)
}

// instanceCache interns materialized instances by InstanceKey with LRU
// eviction. The interned *Instance carries the memoized engine-level
// instance and its dense frozen form (see protocol.Instance.DIP), both
// immutable after first use, so handing one instance to concurrent
// certification runs is race-free — each run builds its own runner
// against the shared frozen state.
type instanceCache struct {
	mu    sync.Mutex
	store lru[*Instance]
}

func newInstanceCache(capacity int) *instanceCache {
	return &instanceCache{store: newLRU[*Instance](capacity)}
}

// Intern returns the cached instance for key, inserting fresh when the
// key is new. The boolean reports a hit. With capacity <= 0 it always
// returns (fresh, false).
func (c *instanceCache) Intern(key RequestKey, fresh *Instance) (*Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if inst, ok := c.store.get(key); ok {
		return inst, true
	}
	c.store.add(key, fresh)
	return fresh, false
}

// Len returns the number of interned instances.
func (c *instanceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.len()
}
