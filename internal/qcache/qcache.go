// Package qcache implements the answer cache of the root package's snapshot
// reader: a bounded LRU from (predicate, adornment, constants) to the
// solutions one read computed — by solving against a model snapshot or by a
// magic-sets evaluation, the cache does not care which — plus the dependency
// cone that determines when a database update invalidates the entry.
//
// Entries are immutable once stored — callers must never mutate a returned
// entry's solutions — so readers need no copy and the lock is held only for
// map/list surgery, never during evaluation.  Invalidation takes the same
// lock, which makes the cache's view atomic: a Get racing an Invalidate
// observes either the entry or its absence, never a half-evicted state
// (the snapshot-publication discipline of internal/incr, applied to a
// cache).  Fills are fenced by an invalidation generation (Gen/PutAt), so
// a reader holding no lock against writers can never publish an answer
// computed against a superseded database.
package qcache

import (
	"container/list"
	"sync"

	"ldl1/internal/eval"
	"ldl1/internal/term"
)

// Key identifies one cached query form: the queried predicate, its
// adornment (binding pattern), and the bound constants (ConstsKey).
type Key struct {
	Pred   string
	Adorn  string
	Consts string
}

// ConstsKey renders ground constants for use in a Key: their LDL1 text
// (term.AppendText), joined by ", ".  A printed ground term parses back to
// exactly that term, so the joined text names one tuple of constants.  A
// lone atom's text is its name or is built once (term.Atom.String).
func ConstsKey(consts []term.Term) string {
	if len(consts) == 1 {
		if a, ok := consts[0].(term.Atom); ok {
			return a.String()
		}
	}
	var b []byte
	for i, c := range consts {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = term.AppendText(b, c)
	}
	return string(b)
}

// Entry is one cached answer set.  Table and Cone are frozen at PutAt time;
// the cache hands out the same cells to every hit.
type Entry struct {
	// Table is the answer table of the read that filled the entry
	// (eval.Query.Solve).  Its cells may not be written to; every hit
	// reads them in place (ldl1.Answers.Len and Row).
	Table eval.Table
	// Cone holds every predicate (EDB and IDB) the query depends on; an
	// update touching any of them evicts the entry.
	Cone map[string]bool
}

// Cache is a thread-safe LRU of query answers.
type Cache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	m         map[Key]*list.Element
	hits      int
	misses    int
	evictions int
	// gen counts invalidations.  Readers record Gen() before loading their
	// snapshot and fill with PutAt: a fill raced by any intervening
	// invalidation is dropped, so an answer computed against a superseded
	// snapshot can never be published as current.
	gen int64
}

type cell struct {
	k Key
	e *Entry
}

// New returns a cache holding at most cap entries.  cap <= 0 disables
// caching: every Get misses without being counted and PutAt is a no-op.
func New(cap int) *Cache {
	return &Cache{cap: cap, ll: list.New(), m: map[Key]*list.Element{}}
}

// Get returns the entry for k, promoting it to most-recently-used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cell).e, true
}

// Gen returns the current invalidation generation.  Readers must call Gen
// before loading the snapshot they evaluate, and pass the value to PutAt.
func (c *Cache) Gen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// PutAt stores e under k, evicting the least-recently-used entry beyond
// capacity — but only if no Invalidate ran since the caller observed gen
// with Gen().  A dropped fill is safe — the next Get simply misses.  The
// entry must not be mutated after the call.
func (c *Cache) PutAt(k Key, e *Entry, gen int64) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if el, ok := c.m[k]; ok {
		el.Value.(*cell).e = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cell{k: k, e: e})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cell).k)
		c.evictions++
	}
}

// Invalidate evicts every entry whose dependency cone contains any of the
// given predicates, returning the number evicted.  Every call advances the
// generation, even when nothing matches: a concurrent lock-free fill
// cannot tell whether its snapshot predates the update, so it must be
// dropped regardless.
func (c *Cache) Invalidate(preds ...string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		cl := el.Value.(*cell)
		for _, p := range preds {
			if cl.e.Cone[p] {
				c.ll.Remove(el)
				delete(c.m, cl.k)
				c.evictions++
				n++
				break
			}
		}
		el = next
	}
	return n
}

// Len reports the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters reports cumulative hits, misses, and evictions.
func (c *Cache) Counters() (hits, misses, evictions int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
