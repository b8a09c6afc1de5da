package hls

import (
	"sync"
	"sync/atomic"
)

// Cache is a sharded, mutex-striped memoization table for estimation
// results, keyed by dense design-point ID (space.ID). It exists because the DSE's
// concurrent engine evaluates design points from many goroutines at
// once: a plain map (the pre-concurrency evaluator cache) is
// single-goroutine only, and a single global mutex would serialize the
// very estimations the worker pool is supposed to overlap.
//
// Entries have future semantics: the first caller of GetOrCompute for a
// key computes the value outside the shard lock while concurrent
// callers for the same key block on the entry's ready channel (counted
// as contention) instead of duplicating the work. Values must therefore
// come from pure computations — every caller receives the single stored
// value, whoever computed it.
type Cache[K CacheKey, V any] struct {
	shards []cacheShard[K, V]

	hits      atomic.Int64
	misses    atomic.Int64
	contended atomic.Int64
}

type cacheShard[K CacheKey, V any] struct {
	mu sync.Mutex
	m  map[K]*cacheEntry[V]
}

// CacheKey is the type of a Cache key: a dense ID such as space.ID.
// IDs handed out in order spread evenly over the shards, so a key picks
// its own shard with no hashing.
type CacheKey interface{ ~int32 }

type cacheEntry[V any] struct {
	ready chan struct{} // closed once val is set
	val   V
}

// DefaultCacheShards balances stripe contention against footprint for
// pools of up to a few dozen evaluation goroutines.
const DefaultCacheShards = 64

// NewCache returns a cache striped over the given number of shards
// (values < 1 fall back to DefaultCacheShards).
func NewCache[K CacheKey, V any](shardCount int) *Cache[K, V] {
	if shardCount < 1 {
		shardCount = DefaultCacheShards
	}
	c := &Cache[K, V]{shards: make([]cacheShard[K, V], shardCount)}
	for i := range c.shards {
		c.shards[i].m = map[K]*cacheEntry[V]{}
	}
	return c
}

func (c *Cache[K, V]) shard(key K) *cacheShard[K, V] {
	return &c.shards[uint64(key)%uint64(len(c.shards))]
}

// GetOrCompute returns the cached value for key, computing it with f on
// first use. The boolean reports whether the value was already present
// (or being computed by another goroutine) — i.e. whether this caller's
// f was NOT run. f executes outside the shard lock, so long computations
// only block callers of the same key, never the stripe.
func (c *Cache[K, V]) GetOrCompute(key K, f func() V) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.ready:
			c.hits.Add(1)
		default:
			// Another goroutine is mid-compute: this is the cross-worker
			// contention the stats expose.
			c.contended.Add(1)
			<-e.ready
		}
		return e.val, true
	}
	e := &cacheEntry[V]{ready: make(chan struct{})}
	s.m[key] = e
	s.mu.Unlock()
	c.misses.Add(1)
	e.val = f()
	close(e.ready)
	return e.val, false
}

// Len returns the number of entries (including in-flight computations).
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// CacheStats is a snapshot of cache traffic.
type CacheStats struct {
	// Hits counts GetOrCompute calls served an existing (or in-flight)
	// entry.
	Hits int64
	// Misses counts first-time computations.
	Misses int64
	// Contended counts hits that had to block on an in-flight
	// computation by another goroutine.
	Contended int64
	// Entries is the current entry count.
	Entries int
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[K, V]) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Contended: c.contended.Load(),
		Entries:   c.Len(),
	}
}
