package serve

// Two layers of duplicate suppression sit in front of the engine pools,
// one instance of each per endpoint:
//
//   - flights coalesces identical *in-flight* requests: the first request
//     for a key becomes the leader and does the work, later arrivals
//     block on its completion and share the value. Coalesced joiners
//     never enter the admission queue, so a duplicate-heavy burst costs
//     one queue slot, not N.
//   - lru is a bounded LRU of *completed* results: repeats after
//     completion are served without touching a pool at all. It memoizes
//     exact root results — distinct from the shared transposition table,
//     which memoizes interior bounds and survives eviction churn. The
//     parked-solver store is an lru too, used through take.

import (
	"container/list"
	"sync"
)

// flight is one in-flight request: joiners block on done and read
// val/err afterwards (the channel close is the happens-before edge).
type flight[V any] struct {
	done     chan struct{}
	val      V
	err      error
	degraded bool // search only: the backend answered in degraded mode (set before done closes)
}

// flights indexes in-flight requests by full request key.
type flights[V any] struct {
	mu    sync.Mutex
	calls map[string]*flight[V]
}

// join returns the flight for key, creating it when absent. leader
// reports whether this caller created it — the leader must eventually
// settle the flight with finish.
func (g *flights[V]) join(key string) (c *flight[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*flight[V])
	}
	if c := g.calls[key]; c != nil {
		return c, false
	}
	c = &flight[V]{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish settles a flight: the key is unregistered first, so requests
// arriving after this point start a fresh flight (and will normally hit
// the result cache instead), then the waiters are released.
func (g *flights[V]) finish(key string, c *flight[V], val V, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.val, c.err = val, err
	close(c.done)
}

// lru is a bounded LRU map. A zero or negative capacity disables it (get
// and take always miss, put is a no-op).
type lru[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	if capacity <= 0 {
		return &lru[V]{}
	}
	return &lru[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the value for key and marks it most recently used.
func (c *lru[V]) get(key string) (V, bool) { return c.lookup(key, false) }

// take removes and returns the value for key: checkout semantics, so two
// concurrent requests can never hold one value at once.
func (c *lru[V]) take(key string) (V, bool) { return c.lookup(key, true) }

func (c *lru[V]) lookup(key string, remove bool) (V, bool) {
	var zero V
	if c.cap == 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	if remove {
		c.ll.Remove(el)
		delete(c.items, key)
	} else {
		c.ll.MoveToFront(el)
	}
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lru[V]) put(key string, val V) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// len reports the live entry count (for tests, /healthz and SolveStats).
func (c *lru[V]) len() int {
	if c.cap == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
