package qcache

import (
	"fmt"
	"sync"
	"testing"

	"ldl1/internal/term"
)

func key(i int) Key {
	return Key{Pred: fmt.Sprintf("p%d", i), Adorn: "bf", Consts: "a"}
}

func entry(preds ...string) *Entry {
	cone := map[string]bool{}
	for _, p := range preds {
		cone[p] = true
	}
	return &Entry{Cone: cone}
}

func TestCacheGetPut(t *testing.T) {
	c := New(4)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	e := entry("p1", "base")
	c.PutAt(key(1), e, c.Gen())
	got, ok := c.Get(key(1))
	if !ok || got != e {
		t.Fatal("stored entry not returned")
	}
	hits, misses, _ := c.Counters()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.PutAt(key(1), entry("a"), c.Gen())
	c.PutAt(key(2), entry("b"), c.Gen())
	c.Get(key(1)) // promote 1; 2 is now LRU
	c.PutAt(key(3), entry("c"), c.Gen())
	if _, ok := c.Get(key(2)); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Error("promoted entry evicted")
	}
	if c.Len() != 2 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheInvalidateByCone(t *testing.T) {
	c := New(8)
	c.PutAt(key(1), entry("anc", "parent"), c.Gen())
	c.PutAt(key(2), entry("sg", "sib"), c.Gen())
	if n := c.Invalidate("unrelated"); n != 0 {
		t.Fatalf("invalidated %d entries for unrelated pred", n)
	}
	if n := c.Invalidate("parent"); n != 1 {
		t.Fatalf("invalidated %d entries; want 1", n)
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("entry with touched cone survived")
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Error("entry with untouched cone evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := New(0)
	c.PutAt(key(1), entry("a"), c.Gen())
	if _, ok := c.Get(key(1)); ok {
		t.Error("disabled cache stored an entry")
	}
	if h, m, ev := c.Counters(); h+m+ev != 0 {
		t.Errorf("disabled cache counted: hits=%d misses=%d evictions=%d", h, m, ev)
	}
}

func TestConstsKey(t *testing.T) {
	a := ConstsKey([]term.Term{term.Atom("x"), term.Int(3)})
	b := ConstsKey([]term.Term{term.Atom("x"), term.Int(3)})
	if a != b {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
	if a == ConstsKey([]term.Term{term.Atom("x"), term.Int(4)}) {
		t.Error("distinct constants collide")
	}
	if ConstsKey(nil) != "" {
		t.Error("empty consts should key to empty string")
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Concurrent Get/Put/Invalidate must be race-free (run under -race).
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 20)
				switch g % 3 {
				case 0:
					c.PutAt(k, entry(k.Pred, "base"), c.Gen())
				case 1:
					c.Get(k)
				default:
					c.Invalidate("base")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGenerationFence pins the lock-free-reader fill protocol: a reader
// records Gen() before loading its snapshot and fills with PutAt; any
// Invalidate in between bumps the generation and the stale fill
// is dropped instead of being served as current.
func TestGenerationFence(t *testing.T) {
	c := New(4)
	gen := c.Gen()
	c.PutAt(key(1), entry("a"), gen)
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("same-generation fill dropped")
	}

	// Invalidation bumps the generation even when nothing matches the cone.
	gen = c.Gen()
	c.Invalidate("unrelated")
	c.PutAt(key(2), entry("b"), gen)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("fill from a superseded generation was published")
	}

	// And the fence resets: a fresh generation fills normally again.
	c.PutAt(key(3), entry("c"), c.Gen())
	if _, ok := c.Get(key(3)); !ok {
		t.Fatal("post-bump fill with fresh generation dropped")
	}
}
