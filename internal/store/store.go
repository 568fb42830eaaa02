// Package store holds sets of U-facts: per-predicate relations with
// duplicate elimination, insertion-order iteration, and lazily built
// (possibly composite) hash indexes used by the join evaluator.
//
// Fact identity is hash-based: facts live in buckets keyed by their
// memoized 64-bit structural hash (term.Fact.Hash), and the rare hash
// collision is resolved by the structural term.EqualFacts; no fact is
// rendered to text on these paths.  Inserting returns the
// relation's canonical *term.Fact for the value, so downstream consumers
// (deltas, indexes, provenance) share one interned fact pointer per U-fact
// and equality checks usually short-circuit on pointer identity.
//
// A relation is three two-level structures — the insertion order as a
// directory of segments, the intern tables as a directory of hash shards,
// every index as a directory of hash shards of buckets — and the unit of
// copy-on-write is one segment, shard or bucket, not the relation.  A shard
// directory grows by splitting one shard in place: a table full at unit
// slots splits by its next hash bit, and the directory doubles, by a
// pointer copy, only when that table was as deep as it (room).  The
// directories, and the facts of a bucket, are paged (dir): a fork copies
// their tops, and a write then copies the units it lands in and the pages
// above them; a write to a bucket of more than unit facts copies the
// bucket's top and the one page it lands in.  A probe walks a bucket page
// by page (ScanCols), as a scan walks the segments (Scan).
// DB.Clone shares every relation between the two databases, frozen; the
// first of them to write a frozen relation forks it.  DB.Adopt takes in
// another database's relation by the same rule.
// A fact has one representation everywhere in the store: a *term.Fact.
package store

import (
	"slices"
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
	hashFact = (*term.Fact).Hash
	hashTerm = term.Term.Hash
)

// IndexThreshold is the relation size below which ScanCols scans
// instead of building a hash index: constructing per-column maps over a
// handful of facts (semi-naive delta chunks especially) costs more than the
// scans it saves.  An index already built while the relation was larger
// keeps serving lookups.
const IndexThreshold = 16

// unit is the page size of copy-on-write, in entries: a segment holds at
// most unit facts, an intern table or an index shard splits rather than grow
// past unit slots (room), and a directory page (dir) holds at most
// unit pointers to segments or shards.
// A fork copies one pointer per directory page; a write copies the units it
// changes and the directory page above each.  The value comes from a sweep
// on serve-mixed (DESIGN §12): smaller units make every copied page smaller,
// and below 64 the headers of the extra units raise the live heap.
const unit = 64

// forkIDs numbers relation forks.  A relation stamps the units it creates
// with its own number and mutates in place only units that carry it; every
// other unit it reaches belongs to a relation it was forked from, possibly
// to a published snapshot, and is copied before the first write.  Relations
// that were never forked from anything are number 0: they reach no unit but
// their own.  A number, not a pointer to the owner, so that a unit does not
// keep the snapshot that made it (and that snapshot's other units) alive.
var forkIDs atomic.Uint64

// segment is one run of the insertion order.  Only the last segment of a
// relation is appended to; a retraction shortens the segment it hits, and a
// segment that empties leaves the directory.
type segment struct {
	owner uint64
	facts []*term.Fact
}

// idxEntry is one distinct probe key in an index: the facts whose indexed
// columns equal vals, its bucket.  The bucket is a directory like the
// relation's segment list: a write to an entry copied from a relation this
// one was forked from copies the bucket's top and the page it lands in.  An
// entry leaves the index with its last fact.
type idxEntry struct {
	owner uint64
	hash  uint64
	vals  []term.Term // values at the index's columns, in cols order
	facts dir[*term.Fact]
}

// idxShard is one shard of an index: a table of the entries whose key hashes
// share their top depth bits.  Two keys with one hash are told apart by
// comparing vals.
type idxShard = table[*idxEntry]

func entryHash(e *idxEntry) uint64 { return e.hash }

// find returns the slot of s holding the entry for (h, vals), or the empty
// slot where it would go.
func find(s *idxShard, h uint64, vals []term.Term) int {
	mask := len(s.slots) - 1
	i := int(h) & mask
scan:
	for ; s.slots[i] != nil; i = (i + 1) & mask {
		e := s.slots[i]
		if e.hash != h {
			continue
		}
		for j, v := range vals {
			if !term.Equal(e.vals[j], v) {
				continue scan
			}
		}
		break
	}
	return i
}

// index is a hash index over one set of argument columns — a single column
// or a composite.  The key of a fact folds its per-column term hashes in
// cols order; its top bits pick the shard, its low bits the slot.  The shards
// split like the intern tables (room).  An index is built once
// under Relation.mu; afterwards only the relation's single writer changes
// it.  Indexes are relation-global, not split along the intern tables'
// shards: a probe answers from one bucket in one step.
type index struct {
	mask   uint64 // bit c set ⇔ column c indexed
	cols   []int  // ascending
	shards dir[*idxShard]
	bits   uint // shards.len() == 1<<bits
	keys   int  // entries over all shards: DistinctCols
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

func keyOf(vals []term.Term) uint64 {
	h := term.HashSeed
	for _, v := range vals {
		h = term.HashFold(h, hashTerm(v))
	}
	return h
}

// key appends f's values at the index's columns to buf; ok is false for a
// fact too short for them (it can never match a probe on those columns).
func (ix *index) key(f *term.Fact, buf []term.Term) (vals []term.Term, ok bool) {
	for _, c := range ix.cols {
		if c >= len(f.Args) {
			return nil, false
		}
		buf = append(buf, f.Args[c])
	}
	return buf, true
}

// ownEntry returns the entry in slot i for a write by the relation numbered
// id, first copying it, with its bucket's top, if it belongs to a relation
// this one was forked from.
func ownEntry(s *idxShard, id uint64, i int) *idxEntry {
	e := s.slots[i]
	if e.owner != id {
		e = &idxEntry{owner: id, hash: e.hash, vals: e.vals, facts: e.facts.clone()}
		s.slots[i] = e
	}
	return e
}

// add appends a fact to its bucket on behalf of the relation numbered id.
func (ix *index) add(id uint64, f *term.Fact) {
	var buf [8]term.Term
	vals, ok := ix.key(f, buf[:0])
	if !ok {
		return
	}
	h := keyOf(vals)
	sh := own(&ix.shards, ix.bits, id, h)
	if i := find(sh, h, vals); sh.slots[i] != nil {
		ownEntry(sh, id, i).facts.push(id, f)
		return
	}
	e := &idxEntry{owner: id, hash: h, vals: slices.Clone(vals), facts: dir[*term.Fact]{flat: []*term.Fact{f}}}
	room(&ix.shards, &ix.bits, id, h, entryHash).insert(h, e, entryHash)
	ix.keys++
}

// remove drops a fact from its bucket (pointer identity: facts reaching an
// index are the relation's canonical pointers).  Bucket order is preserved
// so candidate enumeration stays deterministic under retraction.
func (ix *index) remove(id uint64, f *term.Fact) {
	var buf [8]term.Term
	vals, ok := ix.key(f, buf[:0])
	if !ok {
		return
	}
	h := keyOf(vals)
	sh := own(&ix.shards, ix.bits, id, h)
	i := find(sh, h, vals)
	e := sh.slots[i]
	if e == nil {
		return
	}
	if e.facts.len() == 1 {
		if e.facts.last() == f {
			sh.remove(h, e, entryHash)
			ix.keys--
		}
		return
	}
	ownEntry(sh, id, i).facts.sweepBack(id, func(g *term.Fact) (*term.Fact, bool) {
		if g == f {
			return nil, false
		}
		return g, true
	})
}

// probe returns the bucket of vals as it stands, empty when the index has
// none: later appends to the bucket reach its pages but not the count, so
// walking the copy's first len() facts sees the bucket of the probe.
func (ix *index) probe(vals []term.Term) dir[*term.Fact] {
	h := keyOf(vals)
	sh := ix.shards.at(shardOf(h, ix.bits))
	if e := sh.slots[find(sh, h, vals)]; e != nil {
		return e.facts
	}
	return dir[*term.Fact]{}
}

// Relation is a set of U-facts for one predicate.
//
// Concurrency: Insert is single-writer; ScanCols, Scan, All and Get may run
// from many goroutines BETWEEN writes (snapshot reads, magic executions on
// clones of one database).  The index list is an
// immutable snapshot behind an atomic pointer: probes against built
// indexes take no lock at all, and only the first build per column set
// serializes on mu (double-checked, so racing builders agree on one
// index).  A frozen relation is never written again: a write panics.
type Relation struct {
	Name      string
	id        uint64          // see forkIDs
	n         int             // facts held
	segs      dir[*segment]   // insertion order; no segment is empty
	shards    dir[*factTable] // 1<<shardBits entries; empty for chunks until first point op
	shardBits uint
	mu        sync.Mutex // guards index construction
	indexes   atomic.Pointer[[]*index]
	useIdx    bool
	// frozen is set by DB.Clone and DB.Adopt, possibly from several
	// goroutines at once: two databases reach the relation, and each writes
	// a fork of it.
	frozen atomic.Bool
}

// NewRelation creates an empty relation.
func NewRelation(name string, useIndexes bool) *Relation {
	return &Relation{
		Name:   name,
		shards: dir[*factTable]{flat: []*factTable{newFactTable(0)}},
		useIdx: useIndexes,
	}
}

// NewChunk wraps runs of already-distinct facts, in order, as a relation
// without building the dedup buckets — the cheap construction used for delta
// chunks, which are consumed by one round of joins and discarded.  Each run
// becomes a segment without a copy, clipped, so nothing written to the
// chunk lands in a run.  Insert still works: the first call rebuilds the
// buckets from the existing facts.
func NewChunk(name string, runs [][]*term.Fact, useIndexes bool) *Relation {
	r := &Relation{Name: name, useIdx: useIndexes}
	for _, run := range runs {
		if len(run) > 0 {
			r.n += len(run)
			r.segs.push(0, &segment{facts: slices.Clip(run)})
		}
	}
	return r
}

// ensureTables builds the intern table from the facts; only chunk
// relations (NewChunk) ever take this path, and only if someone performs a
// point operation on them after construction.
func (r *Relation) ensureTables() {
	if r.shards.len() > 0 {
		return
	}
	t := newFactTable(r.n)
	r.segs.each(func(s *segment) {
		for _, g := range s.facts {
			t.insert(hashFact(g), g, hashFact)
		}
	})
	r.shards = dir[*factTable]{flat: []*factTable{t}}
}

func (r *Relation) shard(h uint64) int { return shardOf(h, r.shardBits) }

func (r *Relation) table(h uint64) *factTable { return r.shards.at(r.shard(h)) }

// freeze marks r shared by two databases (DB.Clone, DB.Adopt); it loads
// the flag before storing it, so that freezing a frozen relation writes
// nothing.
func (r *Relation) freeze() {
	if !r.frozen.Load() {
		r.frozen.Store(true)
	}
}

// checkWrite panics on a write to a frozen relation: the databases that
// share it write forks of it (DB.Rel), so only a *Relation held across a
// Clone or an Adopt lands here, and writing it would change a copy under
// its reader.
func (r *Relation) checkWrite() {
	if r.frozen.Load() {
		panic("store: write to frozen relation " + r.Name + " (shared by a DB.Clone or DB.Adopt)")
	}
}

// Len returns the number of facts.
func (r *Relation) Len() int { return r.n }

// Scan calls f with the runs of the insertion order, in order, until f
// fails: what All() holds, without the copy.  It stops after the Len()
// facts it started with, and inserts only ever extend that sequence, so a
// scan sees a stable snapshot even when f drives inserts into the relation.
func (r *Relation) Scan(f func([]*term.Fact) error) (err error) {
	n := r.n
	r.segs.each(func(s *segment) {
		if n > 0 && err == nil {
			run := s.facts[:min(len(s.facts), n)]
			n -= len(run)
			err = f(run)
		}
	})
	return err
}

// All returns the facts in insertion order (a bulk load inserts in input
// order).  Callers must not mutate the returned slice.  A relation of more
// than one segment pays for a copy; scans should use Scan instead.
func (r *Relation) All() []*term.Fact {
	switch r.segs.len() {
	case 0:
		return nil
	case 1:
		return r.segs.last().facts
	}
	return r.appendTo(make([]*term.Fact, 0, r.n))
}

// appendTo appends the facts, in insertion order, to out.
func (r *Relation) appendTo(out []*term.Fact) []*term.Fact {
	r.segs.each(func(s *segment) {
		out = append(out, s.facts...)
	})
	return out
}

// Contains reports whether the relation holds the fact.
func (r *Relation) Contains(f *term.Fact) bool {
	_, ok := r.Get(f)
	return ok
}

// Get returns the relation's canonical fact equal to f, or nil.
func (r *Relation) Get(f *term.Fact) (*term.Fact, bool) {
	r.ensureTables()
	h := hashFact(f)
	g := get(r.table(h), h, f)
	return g, g != nil
}

// GetArgs returns the relation's canonical fact for Name(args...), whose
// term.HashFactArgs is h, or nil, without requiring the fact to be
// constructed: evaluators probe it per firing and allocate only when the
// derivation is genuinely new, with the hash they probed by.
func (r *Relation) GetArgs(h uint64, args []term.Term) *term.Fact {
	r.ensureTables()
	return getArgs(r.table(h), h, r.Name, args)
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
	r.checkWrite()
	r.ensureTables()
	h := hashFact(f)
	if g := get(r.table(h), h, f); g != nil {
		return g, false
	}
	room(&r.shards, &r.shardBits, r.id, h, hashFact).insert(h, f, hashFact)
	r.push(f, 1)
	return f, true
}

// push appends an interned fact to the insertion order and to every built
// index.  more is how many facts the caller is about to push, f included: a
// segment that has to be allocated is sized for them, or whole when it
// follows a full one.
func (r *Relation) push(f *term.Fact, more int) {
	r.n++
	if s := r.segs.last(); s != nil && len(s.facts) < unit {
		if s.owner != r.id {
			n := len(s.facts)
			s = &segment{owner: r.id, facts: append(make([]*term.Fact, 0, min(unit, n+max(n, more))), s.facts...)}
			r.segs.setLast(r.id, s)
		}
		s.facts = append(s.facts, f)
	} else {
		s := &segment{owner: r.id, facts: make([]*term.Fact, 1, min(unit, max(more, r.n-1)))}
		s.facts[0] = f
		r.segs.push(r.id, s)
	}
	if p := r.indexes.Load(); p != nil {
		for _, ix := range *p {
			ix.add(r.id, f)
		}
	}
}

// unlink removes the canonical facts gone (already out of the intern
// tables) from the insertion order and from every built index.  Segments
// are searched newest first — a retraction mostly undoes a recent insertion
// — and the search stops with the last fact found.  A segment keeps the
// order of its other facts, and one that empties leaves the directory.
func (r *Relation) unlink(gone []*term.Fact, drop func(*term.Fact) bool) {
	left := len(gone)
	r.segs.sweepBack(r.id, func(s *segment) (*segment, bool) {
		first := slices.IndexFunc(s.facts, drop)
		if first < 0 {
			return s, true
		}
		if s.owner != r.id {
			s = &segment{owner: r.id, facts: slices.Clone(s.facts)}
		}
		n := len(s.facts)
		s.facts = s.facts[:first+len(slices.DeleteFunc(s.facts[first:], drop))] // DeleteFunc clears the tail
		if left -= n - len(s.facts); len(s.facts) == 0 {
			s = nil
		}
		return s, left > 0
	})
	r.n -= len(gone)
	if p := r.indexes.Load(); p != nil {
		for _, g := range gone {
			for _, ix := range *p {
				ix.remove(r.id, g)
			}
		}
	}
}

// Delete removes the fact equal to f, reporting whether it was present.
// The insertion order of the surviving facts is unchanged — All() remains a
// stable snapshot ordering under retraction — and every built index is
// maintained in place.  Like Insert, Delete is single-writer.
func (r *Relation) Delete(f *term.Fact) bool {
	r.checkWrite()
	r.ensureTables()
	h := hashFact(f)
	g := get(r.table(h), h, f)
	if g == nil {
		return false
	}
	own(&r.shards, r.shardBits, r.id, h).remove(h, g, hashFact)
	r.unlink([]*term.Fact{g}, func(x *term.Fact) bool { return x == g })
	return true
}

// DeleteAll removes every listed fact present in the relation, returning
// how many were removed.  The insertion order is compacted in one sweep, so
// a batch of k retractions costs one pass instead of the k passes of
// repeated Delete — the shape of DRed's per-transaction batch delete.
// Surviving facts keep their relative order.  Like Insert and Delete,
// DeleteAll is single-writer.
func (r *Relation) DeleteAll(fs []*term.Fact) int {
	if len(fs) == 0 {
		return 0
	}
	r.checkWrite()
	r.ensureTables()
	victims := make(map[*term.Fact]bool, len(fs))
	removed := make([]*term.Fact, 0, len(fs))
	for _, f := range fs {
		h := hashFact(f)
		if g := get(r.table(h), h, f); g != nil {
			own(&r.shards, r.shardBits, r.id, h).remove(h, g, hashFact)
			victims[g] = true
			removed = append(removed, g)
		}
	}
	if len(removed) > 0 {
		r.unlink(removed, func(x *term.Fact) bool { return victims[x] })
	}
	return len(removed)
}

// fork returns a relation holding r's facts that shares every segment,
// intern table and index bucket with r, and every directory page above
// them, and copies only the directories' tops; writes through the fork copy
// the units they land in and the pages above those, so r — frozen, and so
// never written again — never changes under its readers.  Indexes r builds
// later are r's alone.
func (r *Relation) fork() *Relation {
	nr := &Relation{
		Name:      r.Name,
		id:        forkIDs.Add(1),
		n:         r.n,
		segs:      r.segs.clone(),
		shards:    r.shards.clone(),
		shardBits: r.shardBits,
		useIdx:    r.useIdx,
	}
	if p := r.indexes.Load(); p != nil {
		next := make([]*index, len(*p))
		for i, ix := range *p {
			c := *ix
			c.shards = ix.shards.clone()
			next[i] = &c
		}
		nr.indexes.Store(&next)
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
		mask:   mask,
		cols:   slices.Clone(cols),
		shards: dir[*idxShard]{flat: []*idxShard{{owner: r.id, slots: make([]*idxEntry, unit)}}},
	}
	r.segs.each(func(s *segment) {
		for _, f := range s.facts {
			ix.add(r.id, f)
		}
	})
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

// indexFor returns the index that answers probes on cols, building it the
// first time the relation holds IndexThreshold facts, or nil when a probe
// has to scan.
func (r *Relation) indexFor(cols []int) *index {
	if !r.useIdx || len(cols) == 0 {
		return nil
	}
	mask, ok := colsMask(cols)
	if !ok {
		return nil
	}
	if ix := r.findIndex(mask); ix != nil || r.n < IndexThreshold {
		return ix
	}
	return r.buildIndex(mask, cols)
}

// ScanCols calls f with the runs of the facts whose arguments at the given
// columns equal vals (cols ascending, len(vals) == len(cols)), in order,
// until f fails.  With indexing enabled and at least IndexThreshold facts,
// the first probe per column set builds a composite hash index that Insert
// then maintains, and the runs are the pages of one bucket; indexed reports
// that.  Otherwise every match is a run of its own.  Like Scan it stops
// after the facts that matched when it began, so f may drive inserts into
// the relation, and it allocates nothing once the index exists.
func (r *Relation) ScanCols(cols []int, vals []term.Term, f func([]*term.Fact) error) (indexed bool, err error) {
	if ix := r.indexFor(cols); ix != nil {
		b := ix.probe(vals)
		n := b.len()
		for p := 0; n > 0 && err == nil; p++ {
			run := b.page(p)
			run = run[:min(len(run), n)]
			n -= len(run)
			err = f(run)
		}
		return true, err
	}
	return false, r.Scan(func(run []*term.Fact) error {
	scan:
		for i, g := range run {
			for j, c := range cols {
				if c >= len(g.Args) || !term.Equal(g.Args[c], vals[j]) {
					continue scan
				}
			}
			if err := f(run[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	})
}

// LookupCols returns the facts ScanCols hands out, in one slice the caller
// must not mutate: a bucket of at most unit facts as it is, a longer one
// copied out of its pages.
func (r *Relation) LookupCols(cols []int, vals []term.Term) (facts []*term.Fact, indexed bool) {
	if ix := r.indexFor(cols); ix != nil {
		if b := ix.probe(vals); b.top == nil {
			return b.flat, true
		}
	}
	indexed, _ = r.ScanCols(cols, vals, func(run []*term.Fact) error {
		facts = append(facts, run...)
		return nil
	})
	return facts, indexed
}

// Indexed reports whether LookupCols(cols, ...) would be answered by an
// index, built already or built by that call, without building one.
func (r *Relation) Indexed(cols []int) bool {
	mask, ok := colsMask(cols)
	return r.useIdx && len(cols) > 0 && ok && (r.findIndex(mask) != nil || r.n >= IndexThreshold)
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
		return ix.keys, true
	}
	return 0, false
}

// DB is a database: a set of U-facts grouped into relations.
type DB struct {
	rels       map[string]*Relation
	order      []string // relation creation order, for deterministic output
	UseIndexes bool
}

// NewDB creates an empty database with indexing enabled.
func NewDB() *DB { return &DB{rels: make(map[string]*Relation), UseIndexes: true} }

// Rel returns the relation for pred, creating it if needed, as one this
// database may write: a relation it shares with a clone is replaced by a
// fork of it first (Relation.fork copies its directories' tops, and each
// later write the units it lands in and the directory pages above them).
// The result stays writable until the database is next cloned.
func (db *DB) Rel(pred string) *Relation {
	r, ok := db.rels[pred]
	switch {
	case !ok:
		r = NewRelation(pred, db.UseIndexes)
		db.order = append(db.order, pred)
	case r.frozen.Load():
		r = r.fork()
	default:
		return r
	}
	db.rels[pred] = r
	return r
}

// RelOrNil returns the relation for pred without creating it.  Unlike Rel
// it never mutates the database, so concurrent readers (snapshot reads,
// magic executions on clones) may call it while no writer is active.  Callers must treat the
// result as read-only: it may be shared with a clone.
func (db *DB) RelOrNil(pred string) *Relation {
	return db.rels[pred]
}

// Insert adds a fact, reporting whether it was new.
func (db *DB) Insert(f *term.Fact) bool {
	_, added := db.InsertGet(f)
	return added
}

// InsertGet adds a fact if new, returning the database's canonical fact for
// the value and whether f was newly added.  A relation shared with a clone
// is forked only for a fact it lacks, so duplicate inserts copy nothing.
func (db *DB) InsertGet(f *term.Fact) (*term.Fact, bool) {
	r := db.rels[f.Pred]
	switch {
	case r == nil:
		r = db.Rel(f.Pred)
	case r.frozen.Load():
		if g, ok := r.Get(f); ok {
			return g, false
		}
		r = db.Rel(f.Pred)
	}
	return r.InsertGet(f)
}

// Delete removes a fact, reporting whether it was present.  A relation
// shared with a clone is forked only when the fact is actually there, so
// pure-miss deletes never copy anything.
func (db *DB) Delete(f *term.Fact) bool {
	r, ok := db.rels[f.Pred]
	if !ok || !r.Contains(f) {
		return false
	}
	return db.Rel(f.Pred).Delete(f)
}

// DeleteAll removes every listed fact present in the database, returning
// how many were removed.  Facts are grouped by predicate so each touched
// relation is forked at most once and compacted in a single sweep.
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
		n += db.Rel(p).DeleteAll(byPred[p])
	}
	return n
}

// Clear empties the relation for pred, if there is one: a fresh relation
// takes its name and creation-order slot, and a clone sharing the old one
// keeps it.
func (db *DB) Clear(pred string) {
	if r, ok := db.rels[pred]; ok {
		db.rels[pred] = NewRelation(pred, r.useIdx)
	}
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

// Len returns the total number of facts, summed over the relations.
func (db *DB) Len() int {
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
		out = db.rels[p].appendTo(out)
	}
	return out
}

// Clone returns an independent copy of the database in O(#relations): both
// databases may go on being written, and neither sees the other's writes.
// The two share every relation, frozen, with the indexes it has built; the
// first of them to write one writes a fork of it (Rel), so a write copies
// in proportion to what it changes.  Several goroutines may clone one
// database at once.
func (db *DB) Clone() *DB {
	out := &DB{
		rels:       make(map[string]*Relation, len(db.rels)),
		order:      slices.Clone(db.order),
		UseIndexes: db.UseIndexes,
	}
	for p, r := range db.rels {
		r.freeze()
		out.rels[p] = r
	}
	return out
}

// Adopt takes r's facts into db, r being another database's relation.
// When db holds no fact of r's predicate it does so by Clone's rule,
// copying only the tops of r's directories: r is frozen, and db lists a
// fork of it (Relation.fork), which shares r's segments, intern tables and
// built indexes, builds later indexes for db alone, and indexes as
// db.UseIndexes says — without r's indexes when that is off.  Otherwise
// r's facts are inserted in one batch (InsertBatch).  Several goroutines
// may adopt one relation at once, as they may clone its database.
func (db *DB) Adopt(r *Relation) {
	if own := db.rels[r.Name]; own != nil && own.Len() > 0 {
		db.Rel(r.Name).InsertBatch(r.All())
		return
	}
	r.freeze()
	f := r.fork()
	if f.useIdx = db.UseIndexes; !f.useIdx {
		f.indexes.Store(nil)
	}
	if _, ok := db.rels[r.Name]; !ok {
		db.order = append(db.order, r.Name)
	}
	db.rels[r.Name] = f
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
