package anscache

import (
	"fmt"
	"sync"
	"testing"
)

// TestGetPutAndCounters runs at a capacity of 0 too: every capacity gets
// at least one slot per shard.
func TestGetPutAndCounters(t *testing.T) {
	for _, capacity := range []int{64, 0} {
		c := New(capacity)
		if _, ok := c.Get("a"); ok {
			t.Fatal("hit on an empty cache")
		}
		c.Put("a", []byte("1"))
		v, ok := c.Get("a")
		if !ok || string(v) != "1" {
			t.Fatalf("capacity %d: Get(a) = %q, %v", capacity, v, ok)
		}
		c.Put("a", []byte("2")) // refresh replaces the value
		if v, _ := c.Get("a"); string(v) != "2" {
			t.Fatalf("capacity %d: refreshed Get(a) = %q", capacity, v)
		}
		hits, misses := c.Stats()
		if hits != 2 || misses != 1 {
			t.Fatalf("capacity %d: stats hits=%d misses=%d, want 2/1", capacity, hits, misses)
		}
		if c.Len() != 1 {
			t.Fatalf("capacity %d: Len = %d, want 1", capacity, c.Len())
		}
	}
}

// TestEvictionIsLRUWithinShard drives one logical LRU by keeping every key
// in play and checking that (a) capacity is respected and (b) the key
// touched most recently survives while an untouched one from the same
// shard eventually goes.
func TestEvictionBoundAndRecencySurvival(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	c.Put("keep", []byte("keep"))
	for i := 0; i < 100*capacity; i++ {
		c.Put(fmt.Sprintf("k%06d", i), []byte("x"))
		// Touch "keep" every iteration: recency must protect it from
		// eviction no matter how much churn shares its shard.
		if _, ok := c.Get("keep"); !ok {
			t.Fatalf("recently used key evicted after %d churn inserts", i)
		}
	}
	if n := c.Len(); n > capacity+numShards {
		t.Fatalf("Len = %d after churn, capacity %d", n, capacity)
	}
	// An early churn key must be long gone (it shares the cache with
	// thousands of later inserts).
	if _, ok := c.Get("k000000"); ok {
		t.Fatal("oldest churn key survived 6400 later inserts")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%200)
				if v, ok := c.Get(key); ok && len(v) != 3 {
					t.Errorf("corrupt value %q", v)
					return
				}
				c.Put(key, []byte("abc"))
			}
		}(w)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != 8*2000 {
		t.Fatalf("counters %d+%d, want %d lookups", hits, misses, 8*2000)
	}
}
