// Package store holds sets of U-facts: per-predicate relations with
// duplicate elimination, insertion-order iteration, and lazily built
// (possibly composite) hash indexes used by the join evaluator.
//
// Fact identity is hash-based: facts live in buckets keyed by their
// memoized 64-bit structural hash (term.Fact.Hash), and the rare hash
// collision is resolved by the structural term.EqualFacts.  The string
// Key() encoding is never built on these paths.  Inserting returns the
// relation's canonical *term.Fact for the value, so downstream consumers
// (deltas, indexes, provenance) share one interned fact pointer per U-fact
// and equality checks usually short-circuit on pointer identity.
//
// Relations are hash-sharded: a fixed power-of-two array of intern tables,
// selected by the top bits of the fact hash (the tables consume the low
// bits).  Relations built by single-fact Insert stay single-shard — the
// historical layout — and a large InsertBatch reshards them so fact
// interning runs shard-parallel and table resizes are per-shard.  A fact
// has one representation everywhere in the store: a *term.Fact.
package store

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ldl1/internal/term"
)

// hashFact and hashTerm route all identity hashing in this package.  They
// are variables only so collision tests can replace them with degenerate
// hashes and drive every fact into one bucket; production code always uses
// the memoized structural hashes.
var (
	hashFact     = (*term.Fact).Hash
	hashTerm     = term.Term.Hash
	hashFactArgs = term.HashFactArgs
)

// IndexThreshold is the relation size below which Lookup scans
// instead of building a hash index: constructing per-column maps over a
// handful of facts (semi-naive delta chunks especially) costs more than the
// scans it saves.  An index already built while the relation was larger
// keeps serving lookups.
const IndexThreshold = 16

// reshardMin is the batch size below which InsertBatch never reshards a
// relation: spreading a few hundred facts over shards costs more in fixed
// per-shard state than parallel interning recovers.
const reshardMin = 1024

// idxEntry is one distinct probe key in an index: the facts whose indexed
// columns equal vals, plus a chain link for the (astronomically rare) case
// of two distinct keys sharing a hash.
type idxEntry struct {
	vals  []term.Term // values at the index's columns, in cols order
	facts []*term.Fact
	next  *idxEntry
}

// index is a hash index over one set of argument columns — a single column
// or a composite.  The key of a fact folds its per-column term hashes in
// cols order; collisions are resolved by structural comparison of vals.
// An index is built once under Relation.mu and is immutable in shape
// afterwards; only Insert (single-writer, between rounds) appends to its
// buckets.  Indexes are relation-global, not per-shard: a per-shard split
// would multiply every probe on the hot join path by the shard count, so
// indexes are built over the merged view instead.
type index struct {
	mask uint64 // bit c set ⇔ column c indexed
	cols []int  // ascending
	m    map[uint64]*idxEntry
}

// colsMask folds a column set into its bitmask; ok is false when a column
// falls outside the representable range (never for real programs).
func colsMask(cols []int) (mask uint64, ok bool) {
	for _, c := range cols {
		if c < 0 || c >= 64 {
			return 0, false
		}
		mask |= 1 << uint(c)
	}
	return mask, true
}

func (ix *index) keyOf(vals []term.Term) uint64 {
	h := term.HashSeed
	for _, v := range vals {
		h = term.HashFold(h, hashTerm(v))
	}
	return h
}

// add appends a fact to its bucket; facts too short for the index's
// columns are skipped (they can never match a probe on those columns).
func (ix *index) add(f *term.Fact) {
	h := term.HashSeed
	for _, c := range ix.cols {
		if c >= len(f.Args) {
			return
		}
		h = term.HashFold(h, hashTerm(f.Args[c]))
	}
	for e := ix.m[h]; e != nil; e = e.next {
		if ix.sameVals(e.vals, f) {
			e.facts = append(e.facts, f)
			return
		}
	}
	vals := make([]term.Term, len(ix.cols))
	for i, c := range ix.cols {
		vals[i] = f.Args[c]
	}
	ix.m[h] = &idxEntry{vals: vals, facts: []*term.Fact{f}, next: ix.m[h]}
}

func (ix *index) sameVals(vals []term.Term, f *term.Fact) bool {
	for i, c := range ix.cols {
		if !term.Equal(vals[i], f.Args[c]) {
			return false
		}
	}
	return true
}

// clone returns a private copy of the index: bucket fact slices are copied
// (Insert appends to them in place, so sharing would alias the original),
// vals and column metadata are shared.  Copying an entry per distinct key
// is several times cheaper than re-hashing every fact through add, which
// is what makes cloning indexes across a copy-on-write unshare worthwhile:
// an incremental transaction would otherwise rebuild every index of every
// relation it touches from scratch.
func (ix *index) clone() *index {
	m := make(map[uint64]*idxEntry, len(ix.m))
	for h, e := range ix.m {
		var head, tail *idxEntry
		for ; e != nil; e = e.next {
			ne := &idxEntry{
				vals:  e.vals,
				facts: append([]*term.Fact(nil), e.facts...),
			}
			if tail == nil {
				head = ne
			} else {
				tail.next = ne
			}
			tail = ne
		}
		m[h] = head
	}
	return &index{mask: ix.mask, cols: ix.cols, m: m}
}

// remove drops a fact from its bucket (pointer identity: facts reaching an
// index are the relation's canonical pointers).  Bucket order is preserved
// so candidate enumeration stays deterministic under retraction.
func (ix *index) remove(f *term.Fact) {
	h := term.HashSeed
	for _, c := range ix.cols {
		if c >= len(f.Args) {
			return
		}
		h = term.HashFold(h, hashTerm(f.Args[c]))
	}
	for e := ix.m[h]; e != nil; e = e.next {
		if !ix.sameVals(e.vals, f) {
			continue
		}
		for i, g := range e.facts {
			if g == f {
				e.facts = append(e.facts[:i], e.facts[i+1:]...)
				return
			}
		}
		return
	}
}

func (ix *index) probe(vals []term.Term) []*term.Fact {
	for e := ix.m[ix.keyOf(vals)]; e != nil; e = e.next {
		match := true
		for i := range vals {
			if !term.Equal(e.vals[i], vals[i]) {
				match = false
				break
			}
		}
		if match {
			return e.facts
		}
	}
	return nil
}

// Relation is a set of U-facts for one predicate.
//
// Concurrency: Insert is single-writer; Lookup, All and Get may run from
// many goroutines BETWEEN writes (the parallel evaluator derives into
// private buffers and merges single-threaded).  The index list is an
// immutable snapshot behind an atomic pointer: probes against built
// indexes take no lock at all, and only the first build per column set
// serializes on mu (double-checked, so racing builders agree on one
// index).
type Relation struct {
	Name      string
	facts     []*term.Fact // insertion order
	shards    []*factTable // power-of-two; nil for chunks until first point op
	shardBits uint
	mu        sync.Mutex // guards index construction
	indexes   atomic.Pointer[[]*index]
	useIdx    bool
}

// NewRelation creates an empty relation.
func NewRelation(name string, useIndexes bool) *Relation {
	return &Relation{
		Name:   name,
		shards: []*factTable{newFactTable(0)},
		useIdx: useIndexes,
	}
}

// NewChunk wraps a slice of already-distinct facts as a relation without
// building the dedup buckets — the cheap construction used for delta
// chunks, which are consumed by one round of joins and discarded.  The
// facts slice is owned by the chunk.  Insert still works: the first call
// rebuilds the buckets from the existing facts.
func NewChunk(name string, facts []*term.Fact, useIndexes bool) *Relation {
	return &Relation{
		Name:   name,
		facts:  facts[:len(facts):len(facts)],
		useIdx: useIndexes,
	}
}

// ensureTables builds the intern table from the fact slice; only chunk
// relations (NewChunk) ever take this path, and only if someone performs a
// point operation on them after construction.
func (r *Relation) ensureTables() {
	if r.shards != nil {
		return
	}
	t := newFactTable(len(r.facts))
	for _, g := range r.facts {
		t.insert(hashFact(g), g)
	}
	r.shards = []*factTable{t}
}

// shardOf maps a fact hash to its shard: the top hash bits, because the
// intern tables consume the low bits.
func (r *Relation) shardOf(h uint64) int {
	if r.shardBits == 0 {
		return 0
	}
	return int(h >> (64 - r.shardBits))
}

// Len returns the number of facts.
func (r *Relation) Len() int { return len(r.facts) }

// ShardCount returns the relation's current shard count.
func (r *Relation) ShardCount() int {
	if r.shards == nil {
		return 1
	}
	return len(r.shards)
}

// All returns the facts in insertion order (a bulk load inserts in
// shard-major batch order).  Callers must not mutate the returned slice.
func (r *Relation) All() []*term.Fact { return r.facts }

// Contains reports whether the relation holds the fact.
func (r *Relation) Contains(f *term.Fact) bool {
	_, ok := r.Get(f)
	return ok
}

// Get returns the relation's canonical fact equal to f, or nil.
func (r *Relation) Get(f *term.Fact) (*term.Fact, bool) {
	r.ensureTables()
	h := hashFact(f)
	g := r.shards[r.shardOf(h)].get(h, f)
	return g, g != nil
}

// GetArgs returns the relation's canonical fact for Name(args...), without
// requiring the fact to be constructed: evaluators probe it per firing and
// allocate only when the derivation is genuinely new.
func (r *Relation) GetArgs(args []term.Term) (*term.Fact, bool) {
	r.ensureTables()
	h := hashFactArgs(r.Name, args)
	g := r.shards[r.shardOf(h)].getArgs(h, r.Name, args)
	return g, g != nil
}

// Insert adds the fact, reporting whether it was new.
func (r *Relation) Insert(f *term.Fact) bool {
	_, added := r.InsertGet(f)
	return added
}

// InsertGet adds the fact if new, returning the relation's canonical
// (interned) fact for the value and whether f was newly added.  Every
// built index is maintained incrementally.
func (r *Relation) InsertGet(f *term.Fact) (*term.Fact, bool) {
	r.ensureTables()
	h := hashFact(f)
	t := r.shards[r.shardOf(h)]
	if g := t.get(h, f); g != nil {
		return g, false
	}
	t.insert(h, f)
	r.facts = append(r.facts, f)
	if p := r.indexes.Load(); p != nil {
		for _, ix := range *p {
			ix.add(f)
		}
	}
	return f, true
}

// spliceFact removes the canonical pointer g from the insertion-order
// slice, preserving the relative order of the survivors.
func (r *Relation) spliceFact(g *term.Fact) {
	for i, x := range r.facts {
		if x == g {
			r.facts = append(r.facts[:i], r.facts[i+1:]...)
			return
		}
	}
}

// Delete removes the fact equal to f, reporting whether it was present.
// The insertion order of the surviving facts is unchanged — All() remains a
// stable snapshot ordering under retraction — and every built index is
// maintained in place.  Like Insert, Delete is single-writer.
func (r *Relation) Delete(f *term.Fact) bool {
	r.ensureTables()
	h := hashFact(f)
	t := r.shards[r.shardOf(h)]
	g := t.get(h, f)
	if g == nil {
		return false
	}
	t.remove(h, g)
	r.spliceFact(g)
	if p := r.indexes.Load(); p != nil {
		for _, ix := range *p {
			ix.remove(g)
		}
	}
	return true
}

// DeleteAll removes every listed fact present in the relation, returning
// how many were removed.  The insertion-order slice is compacted in one
// sweep, so a batch of k retractions costs O(n + k) instead of the k
// O(n) splices of repeated Delete — the shape of DRed's per-transaction
// batch delete.  Surviving facts keep their relative order.  Like Insert
// and Delete, DeleteAll is single-writer.
func (r *Relation) DeleteAll(fs []*term.Fact) int {
	if len(fs) == 0 {
		return 0
	}
	r.ensureTables()
	victims := make(map[*term.Fact]bool, len(fs))
	removed := make([]*term.Fact, 0, len(fs))
	for _, f := range fs {
		h := hashFact(f)
		t := r.shards[r.shardOf(h)]
		if g := t.get(h, f); g != nil {
			t.remove(h, g)
			victims[g] = true
			removed = append(removed, g)
		}
	}
	if len(removed) == 0 {
		return 0
	}
	kept := r.facts[:0]
	for _, x := range r.facts {
		if !victims[x] {
			kept = append(kept, x)
		}
	}
	for i := len(kept); i < len(r.facts); i++ {
		r.facts[i] = nil // release the tail for the GC
	}
	r.facts = kept
	if p := r.indexes.Load(); p != nil {
		for _, g := range removed {
			for _, ix := range *p {
				ix.remove(g)
			}
		}
	}
	return len(removed)
}

// cloneForWrite returns a private copy sharing no mutable state with r:
// the facts slice, interning tables and built indexes are all copied, so
// the copy is immediately writable and keeps serving
// indexed probes without a rebuild.  Fact pointers are shared — facts are
// immutable.
func (r *Relation) cloneForWrite() *Relation {
	nr := r.cloneBase()
	if p := r.indexes.Load(); p != nil {
		next := make([]*index, len(*p))
		for i, ix := range *p {
			next[i] = ix.clone()
		}
		nr.indexes.Store(&next)
	}
	return nr
}

// cloneBase copies everything except indexes (which rebuild on demand).
func (r *Relation) cloneBase() *Relation {
	nr := &Relation{
		Name:      r.Name,
		facts:     append([]*term.Fact(nil), r.facts...),
		shardBits: r.shardBits,
		useIdx:    r.useIdx,
	}
	if r.shards != nil {
		nr.shards = make([]*factTable, len(r.shards))
		for i, t := range r.shards {
			nr.shards[i] = t.clone()
		}
	}
	return nr
}

// findIndex returns the built index for the column mask, if any.  It is
// lock-free: the snapshot slice is immutable once published.
func (r *Relation) findIndex(mask uint64) *index {
	if p := r.indexes.Load(); p != nil {
		for _, ix := range *p {
			if ix.mask == mask {
				return ix
			}
		}
	}
	return nil
}

// buildIndex constructs the index for the column set and publishes a new
// snapshot.  Concurrent builders for the same mask serialize on mu and
// agree on the winner's index.
func (r *Relation) buildIndex(mask uint64, cols []int) *index {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.findIndex(mask); ix != nil {
		return ix // another goroutine won the build race
	}
	ix := &index{
		mask: mask,
		cols: append([]int(nil), cols...),
		m:    make(map[uint64]*idxEntry, len(r.facts)),
	}
	for _, f := range r.facts {
		ix.add(f)
	}
	var cur []*index
	if p := r.indexes.Load(); p != nil {
		cur = *p
	}
	next := make([]*index, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, ix)
	r.indexes.Store(&next)
	return ix
}

// scanCols enumerates the facts matching the column constraints without an
// index.
func (r *Relation) scanCols(cols []int, vals []term.Term) []*term.Fact {
	var out []*term.Fact
scan:
	for _, f := range r.facts {
		for i, c := range cols {
			if c >= len(f.Args) || !term.Equal(f.Args[c], vals[i]) {
				continue scan
			}
		}
		out = append(out, f)
	}
	return out
}

// LookupCols returns the facts whose arguments at the given columns equal
// the corresponding values (cols ascending, len(vals) == len(cols)).  With
// indexing enabled and at least IndexThreshold facts, the first probe per
// column set builds a composite hash index that Insert then maintains; the
// second return reports whether an index (rather than a scan) served the
// probe.  Reads never lock once the index exists.
func (r *Relation) LookupCols(cols []int, vals []term.Term) ([]*term.Fact, bool) {
	if r.useIdx && len(cols) > 0 {
		if mask, ok := colsMask(cols); ok {
			if ix := r.findIndex(mask); ix != nil {
				return ix.probe(vals), true
			}
			if len(r.facts) >= IndexThreshold {
				return r.buildIndex(mask, cols).probe(vals), true
			}
		}
	}
	return r.scanCols(cols, vals), false
}

// Lookup returns the facts whose argument at column col equals value: the
// single-column case of LookupCols.
func (r *Relation) Lookup(col int, value term.Term) []*term.Fact {
	out, _ := r.LookupCols([]int{col}, []term.Term{value})
	return out
}

// DistinctCols returns the number of distinct value combinations the
// relation holds at the given columns, when an index over exactly those
// columns has already been built (ok reports that).  It is the cheap
// selectivity statistic the cost-based join planner feeds on: distinct keys
// ≈ index buckets, so the expected rows per probe is Len()/distinct.  No
// index is ever built here — planning must stay O(1) per literal.
func (r *Relation) DistinctCols(cols []int) (distinct int, ok bool) {
	mask, valid := colsMask(cols)
	if !valid {
		return 0, false
	}
	if ix := r.findIndex(mask); ix != nil {
		return len(ix.m), true
	}
	return 0, false
}

// DB is a database: a set of U-facts grouped into relations.
type DB struct {
	rels  map[string]*Relation
	order []string // relation creation order, for deterministic output
	// shared marks relations still co-owned with the DB this one was
	// Forked from; they are unshared (copied) on first mutation.  nil for
	// databases that never forked.
	shared     map[string]bool
	UseIndexes bool
	cfg        Config

	// size caches Len(): maintained by the DB-level mutation methods,
	// atomic because published model snapshots answer Len from concurrent
	// readers.  leaked turns the cache off permanently once a mutable
	// *Relation escapes through Rel/MutableRel — the DB can no longer see
	// every mutation, so Len falls back to summing per-relation counts
	// (still O(#relations), never O(#facts)).
	size   atomic.Int64
	leaked bool
}

// NewDB creates an empty database with indexing enabled and the default
// configuration.
func NewDB() *DB { return NewDBWith(DefaultConfig()) }

// NewDBWith creates an empty database with indexing enabled and the given
// store configuration (normalized: shard counts clamp to a power of two).
func NewDBWith(cfg Config) *DB {
	return &DB{rels: make(map[string]*Relation), UseIndexes: true, cfg: cfg.normalize()}
}

// rel returns the relation for pred, creating it if needed, without
// disabling the size cache — internal mutation paths account for their own
// insertions and deletions.
func (db *DB) rel(pred string) *Relation {
	r, ok := db.rels[pred]
	if !ok {
		r = NewRelation(pred, db.UseIndexes)
		db.rels[pred] = r
		db.order = append(db.order, pred)
	}
	return r
}

// mutableRel is MutableRel without the size-cache leak: the relation is
// unshared if needed but the caller promises to report size changes.
func (db *DB) mutableRel(pred string) *Relation {
	r := db.rel(pred)
	if db.shared != nil && db.shared[pred] {
		r = r.cloneForWrite()
		db.rels[pred] = r
		delete(db.shared, pred)
	}
	return r
}

// Rel returns the relation for pred, creating it if needed.  The returned
// relation is mutable, so the cached DB fact count is disabled from here
// on (Len degrades to summing per-relation counts).
func (db *DB) Rel(pred string) *Relation {
	db.leaked = true
	return db.rel(pred)
}

// Has reports whether a relation exists for pred (even if empty).
func (db *DB) Has(pred string) bool {
	_, ok := db.rels[pred]
	return ok
}

// RelOrNil returns the relation for pred without creating it.  Unlike Rel
// it never mutates the database, so concurrent readers (parallel rule
// workers) may call it while no writer is active.  Callers must treat the
// result as read-only; mutating it bypasses fork-sharing and the Len
// cache.
func (db *DB) RelOrNil(pred string) *Relation {
	return db.rels[pred]
}

// MutableRel returns the relation for pred, guaranteed safe to mutate:
// relations still shared with the database this one was Forked from are
// unshared (facts and interning table copied) first.  Like Rel, it
// disables the cached DB fact count.
func (db *DB) MutableRel(pred string) *Relation {
	db.leaked = true
	return db.mutableRel(pred)
}

// sizeAdd maintains the cached fact count across an internal mutation.
func (db *DB) sizeAdd(d int) {
	if db.leaked || d == 0 {
		return
	}
	db.size.Add(int64(d))
}

// Insert adds a fact, reporting whether it was new.  A relation shared with
// a forked-from database is unshared only for a fact it lacks, so duplicate
// inserts never copy anything.
func (db *DB) Insert(f *term.Fact) bool {
	if db.shared[f.Pred] && db.rels[f.Pred].Contains(f) {
		return false
	}
	if db.mutableRel(f.Pred).Insert(f) {
		db.sizeAdd(1)
		return true
	}
	return false
}

// Delete removes a fact, reporting whether it was present.  A relation
// shared with a forked-from database is unshared only when the fact is
// actually there, so pure-miss deletes never copy anything.
func (db *DB) Delete(f *term.Fact) bool {
	r, ok := db.rels[f.Pred]
	if !ok || !r.Contains(f) {
		return false
	}
	if db.mutableRel(f.Pred).Delete(f) {
		db.sizeAdd(-1)
		return true
	}
	return false
}

// DeleteAll removes every listed fact present in the database, returning
// how many were removed.  Facts are grouped by predicate so each touched
// relation is unshared at most once and compacted in a single sweep.
func (db *DB) DeleteAll(fs []*term.Fact) int {
	byPred := make(map[string][]*term.Fact)
	var order []string
	for _, f := range fs {
		r, ok := db.rels[f.Pred]
		if !ok || !r.Contains(f) {
			continue
		}
		if _, seen := byPred[f.Pred]; !seen {
			order = append(order, f.Pred)
		}
		byPred[f.Pred] = append(byPred[f.Pred], f)
	}
	n := 0
	for _, p := range order {
		n += db.mutableRel(p).DeleteAll(byPred[p])
	}
	db.sizeAdd(-n)
	return n
}

// Clear empties the relation for pred, if there is one.  A relation shared
// with a forked-from database is left to that database; this one starts a
// fresh relation under the same name and creation-order slot.
func (db *DB) Clear(pred string) {
	r, ok := db.rels[pred]
	if !ok {
		return
	}
	db.sizeAdd(-r.Len())
	db.rels[pred] = NewRelation(pred, r.useIdx)
	delete(db.shared, pred)
}

// Card returns the number of facts currently held for pred, 0 when no
// relation exists.  Like RelOrNil it never mutates the database, so the
// planner may consult it while concurrent readers are active.
func (db *DB) Card(pred string) int {
	if r := db.rels[pred]; r != nil {
		return r.Len()
	}
	return 0
}

// Contains reports whether the database holds the fact.
func (db *DB) Contains(f *term.Fact) bool {
	r, ok := db.rels[f.Pred]
	return ok && r.Contains(f)
}

// Len returns the total number of facts.  While the database is mutated
// only through DB-level methods the count is maintained incrementally;
// once a mutable relation escapes through Rel/MutableRel it is recomputed
// by summing the per-relation counts (O(#relations), not O(#facts)).
func (db *DB) Len() int {
	if !db.leaked {
		return int(db.size.Load())
	}
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Preds returns the predicate names in creation order.
func (db *DB) Preds() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Facts returns all facts, relation by relation in sorted predicate order
// — deterministic regardless of the order relations were created or
// loaded in.  Within a relation, facts appear in insertion order.
func (db *DB) Facts() []*term.Fact {
	preds := make([]string, len(db.order))
	copy(preds, db.order)
	sort.Strings(preds)
	out := make([]*term.Fact, 0, db.Len())
	for _, p := range preds {
		out = append(out, db.rels[p].All()...)
	}
	return out
}

// Clone returns an independent copy of the database.  Facts are shared
// (they are immutable); relation bookkeeping — interning tables included —
// is copied.  Indexes are not cloned — the copy rebuilds them on demand.
func (db *DB) Clone() *DB {
	out := NewDBWith(db.cfg)
	out.UseIndexes = db.UseIndexes
	n := 0
	for _, p := range db.order {
		r := db.rels[p]
		nr := r.cloneBase()
		out.rels[p] = nr
		out.order = append(out.order, p)
		n += nr.Len()
	}
	out.size.Store(int64(n))
	return out
}

// Fork returns a copy-on-write view of the database: every relation is
// shared with db until first mutated through the fork, at which point it is
// copied (facts slice + interning table; indexes rebuild on demand).  The
// original database must not be mutated while forks of it are alive —
// incremental maintenance forks the published model snapshot, mutates only
// the fork, and publishes it, so concurrent readers of the old snapshot
// never observe a half-applied transaction.
func (db *DB) Fork() *DB {
	out := &DB{
		rels:       make(map[string]*Relation, len(db.rels)),
		order:      append([]string(nil), db.order...),
		shared:     make(map[string]bool, len(db.rels)),
		UseIndexes: db.UseIndexes,
		cfg:        db.cfg,
		leaked:     db.leaked,
	}
	out.size.Store(db.size.Load())
	for p, r := range db.rels {
		out.rels[p] = r
		out.shared[p] = true
	}
	return out
}

// Equal reports whether two databases hold exactly the same facts.
func (db *DB) Equal(other *DB) bool {
	if db.Len() != other.Len() {
		return false
	}
	for _, f := range db.Facts() {
		if !other.Contains(f) {
			return false
		}
	}
	return true
}

// String renders the database as sorted fact lines, for tests and tools.
func (db *DB) String() string {
	lines := make([]string, 0, db.Len())
	for _, f := range db.Facts() {
		lines = append(lines, f.String()+".")
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
