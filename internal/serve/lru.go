package serve

import "container/list"

// lru maps request keys to values, keeping at most cap entries and
// evicting the least recently used beyond that; cap <= 0 keeps none. It
// does no locking: each cache guards its lru with its own mutex.
type lru[V any] struct {
	cap   int
	ll    *list.List                   // of *lruEntry[V], front = most recently used
	items map[RequestKey]*list.Element // into ll
}

type lruEntry[V any] struct {
	key RequestKey
	val V
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{cap: capacity, ll: list.New(), items: make(map[RequestKey]*list.Element)}
}

// get returns key's value and marks it most recently used.
func (c *lru[V]) get(key RequestKey) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add stores val under key as the most recently used entry, evicting
// beyond capacity. An existing entry for key wins and is left as is.
func (c *lru[V]) add(key RequestKey, val V) {
	if c.cap <= 0 {
		return
	}
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

func (c *lru[V]) len() int { return c.ll.Len() }
