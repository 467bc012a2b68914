// Package anscache is the serving layer's per-epoch answer cache: a small
// striped LRU from a query's textual range to its rendered answer.
//
// The cache exploits the one invariant the paper's summaries make cheap to
// state: a published summary is immutable ("summaries are computed over a
// fixed structure", and every serving entry in this repository is compiled
// once and never mutated), so an answer computed against one serving epoch
// is correct for that epoch's entire lifetime. Callers therefore attach one
// Cache to each immutable serving entry and drop it wholesale when a
// rotation or reload publishes a new entry — the (epoch, backend) part of
// the conceptual (epoch, backend, range) cache key is carried by which Cache
// you hold, and invalidation is the pointer swap the serving layer already
// performs. There is deliberately no Delete and no TTL: entries are only
// ever displaced by capacity.
//
// The map is striped into shards, each with its own lock and LRU list, so
// concurrent readers on different keys do not serialize on one mutex; a Get
// that hits performs one hash, one short critical section, and no
// allocation. Hit/miss counters are process-wide atomics exposed for the
// serving layer's metadata endpoint (and the cache-correctness tests).
package anscache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// numShards stripes the key space. 16 keeps lock hold times independent of
// reader count well past the core counts this serves, while an empty cache
// still costs only a few hundred bytes.
const numShards = 16

// node is one resident answer in a shard's intrusive LRU list.
type node struct {
	key        string
	val        []byte
	prev, next *node
}

// shard is one lock's worth of cache: a map for lookup and a
// most-recently-used-first doubly linked list for eviction order.
type shard struct {
	mu   sync.Mutex
	m    map[string]*node
	head *node // most recently used
	tail *node // next to evict
	cap  int
}

// Cache is a striped LRU from range text to rendered answer bytes. The
// zero value is not usable; call New.
type Cache struct {
	seed         maphash.Seed
	shards       [numShards]shard
	hits, misses atomic.Int64
}

// New returns a cache holding at most capacity answers, rounded up to a
// multiple of the shard count with at least one per shard.
func New(capacity int) *Cache {
	perShard := max(1, (capacity+numShards-1)/numShards)
	c := &Cache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i] = shard{m: make(map[string]*node, perShard), cap: perShard}
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)%numShards]
}

// Get returns the cached answer for key and whether it was present, moving
// it to the front of its shard's LRU order. The returned bytes are shared —
// callers must treat them as immutable (the serving layer writes them
// straight to the response).
//
//sasvet:hotpath
func (c *Cache) Get(key string) ([]byte, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	n, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.moveToFront(n)
	v := n.val
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put inserts (or refreshes) an answer, evicting the shard's least recently
// used entry when the shard is full. The cache keeps its own reference to
// val; callers must not mutate it afterwards.
//
//sasvet:hotpath
func (c *Cache) Put(key string, val []byte) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	if n, ok := sh.m[key]; ok {
		n.val = val
		sh.moveToFront(n)
		sh.mu.Unlock()
		return
	}
	if len(sh.m) >= sh.cap {
		evict := sh.tail
		sh.unlink(evict)
		delete(sh.m, evict.key)
	}
	n := &node{key: key, val: val}
	sh.m[key] = n
	sh.pushFront(n)
	sh.mu.Unlock()
}

// Len returns the number of resident answers.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

// Stats returns the lifetime hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// ---- intrusive LRU list (shard.mu held) -------------------------------------

func (sh *shard) pushFront(n *node) {
	n.prev = nil
	n.next = sh.head
	if sh.head != nil {
		sh.head.prev = n
	}
	sh.head = n
	if sh.tail == nil {
		sh.tail = n
	}
}

func (sh *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (sh *shard) moveToFront(n *node) {
	if sh.head == n {
		return
	}
	sh.unlink(n)
	sh.pushFront(n)
}
