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
// A relation is three two-level structures — the insertion order as a
// directory of segments, the intern tables as a directory of hash shards,
// every index as a directory of hash shards of buckets — and the unit of
// copy-on-write is one segment, shard or bucket, not the relation: a fork
// copies the directories, and a write then copies the units it lands in.
// DB.Clone shares every relation between the two databases, frozen; the
// first of them to write a frozen relation forks it.
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

// IndexThreshold is the relation size below which Lookup scans
// instead of building a hash index: constructing per-column maps over a
// handful of facts (semi-naive delta chunks especially) costs more than the
// scans it saves.  An index already built while the relation was larger
// keeps serving lookups.
const IndexThreshold = 16

// unit is the page size of copy-on-write, in entries: a segment holds at
// most unit facts, and an intern table or an index is spread over the fewest
// power-of-two shards that keep the mean shard at or below unit entries.  A
// fork copies one pointer per unit; a write copies the units it changes.
// The value comes from a sweep on serve-mixed (DESIGN §12): smaller units
// make every fork's directories longer, larger ones every copied page.
const unit = 128

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
// columns equal vals.  An entry leaves the index with its last fact.
type idxEntry struct {
	owner uint64
	hash  uint64
	vals  []term.Term // values at the index's columns, in cols order
	facts []*term.Fact
}

// idxShard is an open-addressed table of the entries whose key hashes share
// their top bits: at most three quarters full, probed linearly from the low
// hash bits.  Two keys with one hash sit in neighbouring slots and are told
// apart by comparing vals.
type idxShard struct {
	owner uint64
	slots []*idxEntry // power-of-two sized; nil slots are empty
	n     int
}

func newIdxShard(owner uint64, hint int) *idxShard {
	return &idxShard{owner: owner, slots: make([]*idxEntry, tableSize(hint))}
}

// find returns the slot of the entry for (h, vals), or the empty slot where
// it would go.
func (s *idxShard) find(h uint64, vals []term.Term) int {
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

// place adds an entry whose key the shard does not hold.
func (s *idxShard) place(e *idxEntry) {
	if (s.n+1)*4 > len(s.slots)*3 {
		old := s.slots
		s.slots, s.n = make([]*idxEntry, 2*len(old)), 0
		for _, o := range old {
			if o != nil {
				s.place(o)
			}
		}
	}
	mask := len(s.slots) - 1
	i := int(e.hash) & mask
	for s.slots[i] != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = e
	s.n++
}

// evict empties slot i and closes the gap: every entry of the probe run
// behind it that may move back towards its home slot does, so lookups need
// no tombstones and a table under churn stays as clean as a fresh one.
func (s *idxShard) evict(i int) {
	mask := len(s.slots) - 1
	s.n--
	for j := i; ; {
		s.slots[i] = nil
		for {
			j = (j + 1) & mask
			e := s.slots[j]
			if e == nil {
				return
			}
			// e may fill the gap unless its home slot lies in (i, j].
			if home := int(e.hash) & mask; (home-i-1)&mask >= (j-i)&mask {
				break
			}
		}
		s.slots[i] = s.slots[j]
		i = j
	}
}

// index is a hash index over one set of argument columns — a single column
// or a composite.  The key of a fact folds its per-column term hashes in
// cols order; its top bits pick the shard, its low bits the slot.  An index
// is built once under Relation.mu; afterwards only the relation's single
// writer changes it.  Indexes are relation-global, not split along the
// intern tables' shards: a probe answers from one bucket in one step.
type index struct {
	mask   uint64 // bit c set ⇔ column c indexed
	cols   []int  // ascending
	shards []*idxShard
	bits   uint // len(shards) == 1<<bits
	keys   int  // entries over all shards
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

// own returns the shard for key hash h, first copying it if it belongs to a
// relation this one was forked from: the table of entry pointers is copied,
// the entries stay shared until they change themselves.
func (ix *index) own(id, h uint64) *idxShard {
	si := h >> (64 - ix.bits)
	sh := ix.shards[si]
	if sh.owner != id {
		sh = &idxShard{owner: id, slots: slices.Clone(sh.slots), n: sh.n}
		ix.shards[si] = sh
	}
	return sh
}

// add appends a fact to its bucket on behalf of the relation numbered id.
func (ix *index) add(id uint64, f *term.Fact) {
	var buf [8]term.Term
	vals, ok := ix.key(f, buf[:0])
	if !ok {
		return
	}
	h := keyOf(vals)
	sh := ix.own(id, h)
	i := sh.find(h, vals)
	switch e := sh.slots[i]; {
	case e == nil:
		sh.place(&idxEntry{owner: id, hash: h, vals: slices.Clone(vals), facts: []*term.Fact{f}})
		if ix.keys++; ix.keys > unit<<ix.bits {
			ix.split(id)
		}
	case e.owner != id:
		sh.slots[i] = &idxEntry{owner: id, hash: h, vals: e.vals, facts: append(slices.Clip(e.facts), f)}
	default:
		e.facts = append(e.facts, f)
	}
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
	sh := ix.own(id, h)
	i := sh.find(h, vals)
	e := sh.slots[i]
	if e == nil {
		return
	}
	at := slices.Index(e.facts, f)
	if at < 0 {
		return
	}
	if len(e.facts) == 1 {
		sh.evict(i)
		ix.keys--
		return
	}
	if e.owner != id {
		e = &idxEntry{owner: id, hash: h, vals: e.vals, facts: slices.Clone(e.facts)}
		sh.slots[i] = e
	}
	e.facts = slices.Delete(e.facts, at, at+1)
}

// split doubles the shard directory.  Shards are keyed by the top hash
// bits, so shard s spills into 2s and 2s+1 and nothing else moves.
func (ix *index) split(id uint64) {
	ix.bits++
	next := make([]*idxShard, 1<<ix.bits)
	for i := range next {
		next[i] = newIdxShard(id, ix.keys/len(next))
	}
	for _, sh := range ix.shards {
		for _, e := range sh.slots {
			if e != nil {
				next[e.hash>>(64-ix.bits)].place(e)
			}
		}
	}
	ix.shards = next
}

func (ix *index) probe(vals []term.Term) []*term.Fact {
	h := keyOf(vals)
	sh := ix.shards[h>>(64-ix.bits)]
	if e := sh.slots[sh.find(h, vals)]; e != nil {
		return e.facts
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
// index).  A frozen relation is never written again: a write panics.
type Relation struct {
	Name      string
	id        uint64       // see forkIDs
	n         int          // facts held
	segs      []*segment   // insertion order; no segment is empty
	shards    []*factTable // power-of-two; nil for chunks until first point op
	shardBits uint
	mu        sync.Mutex // guards index construction
	indexes   atomic.Pointer[[]*index]
	useIdx    bool
	// frozen is set by DB.Clone, possibly from several goroutines at once:
	// two databases reach the relation, and each writes a fork of it.
	frozen atomic.Bool
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
	r := &Relation{Name: name, n: len(facts), useIdx: useIndexes}
	if len(facts) > 0 {
		r.segs = []*segment{{facts: slices.Clip(facts)}}
	}
	return r
}

// ensureTables builds the intern table from the facts; only chunk
// relations (NewChunk) ever take this path, and only if someone performs a
// point operation on them after construction.
func (r *Relation) ensureTables() {
	if r.shards != nil {
		return
	}
	t := newFactTable(r.n)
	for _, s := range r.segs {
		for _, g := range s.facts {
			t.insert(hashFact(g), g)
		}
	}
	r.shards = []*factTable{t}
}

// table returns the intern table for fact hash h: the top hash bits pick
// the shard, because the tables consume the low bits.
func (r *Relation) table(h uint64) *factTable { return r.shards[h>>(64-r.shardBits)] }

// own is table for a write: a table that belongs to a relation this one was
// forked from is copied first.
func (r *Relation) own(h uint64) *factTable {
	si := h >> (64 - r.shardBits)
	t := r.shards[si]
	if t.owner != r.id {
		t = t.cloneFor(r.id)
		r.shards[si] = t
	}
	return t
}

// checkWrite panics on a write to a frozen relation: the databases that
// share it write forks of it (DB.Rel), so only a *Relation held across a
// Clone lands here, and writing it would change a copy under its reader.
func (r *Relation) checkWrite() {
	if r.frozen.Load() {
		panic("store: write to frozen relation " + r.Name + " (shared by a DB.Clone)")
	}
}

// Len returns the number of facts.
func (r *Relation) Len() int { return r.n }

// ShardCount returns the relation's current shard count.
func (r *Relation) ShardCount() int {
	if r.shards == nil {
		return 1
	}
	return len(r.shards)
}

// Segment returns the i-th run of the insertion order: Segment(0),
// Segment(1), … concatenated up to Len() facts are All(), without the copy.
// Inserts only ever extend that sequence, so a scan that stops after the
// Len() facts it started with sees a stable snapshot even when the body it
// drives inserts into the relation.
func (r *Relation) Segment(i int) []*term.Fact { return r.segs[i].facts }

// All returns the facts in insertion order (a bulk load inserts in input
// order).  Callers must not mutate the returned slice.  A relation of more
// than one segment pays for a copy; scans should walk Segment instead.
func (r *Relation) All() []*term.Fact {
	switch len(r.segs) {
	case 0:
		return nil
	case 1:
		return r.segs[0].facts
	}
	return r.appendTo(make([]*term.Fact, 0, r.n))
}

// appendTo appends the facts, in insertion order, to out.
func (r *Relation) appendTo(out []*term.Fact) []*term.Fact {
	for _, s := range r.segs {
		out = append(out, s.facts...)
	}
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
	g := r.table(h).get(h, f)
	return g, g != nil
}

// GetArgs returns the relation's canonical fact for Name(args...), whose
// term.HashFactArgs is h, or nil, without requiring the fact to be
// constructed: evaluators probe it per firing and allocate only when the
// derivation is genuinely new, with the hash they probed by.
func (r *Relation) GetArgs(h uint64, args []term.Term) *term.Fact {
	r.ensureTables()
	return r.table(h).getArgs(h, r.Name, args)
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
	if g := r.table(h).get(h, f); g != nil {
		return g, false
	}
	r.own(h).insert(h, f)
	r.push(f, 1)
	if nsh := r.shardsFor(r.n); nsh > len(r.shards) {
		r.reshard(nsh)
	}
	return f, true
}

// shardsFor returns the shard count for a relation of n facts: the current
// one, doubled until the mean shard holds at most unit of them.
func (r *Relation) shardsFor(n int) int {
	nsh := len(r.shards)
	for n > unit*nsh {
		nsh *= 2
	}
	return nsh
}

// push appends an interned fact to the insertion order and to every built
// index.  more is how many facts the caller is about to push, f included: a
// segment that has to be allocated is sized for them.
func (r *Relation) push(f *term.Fact, more int) {
	r.n++
	if k := len(r.segs) - 1; k >= 0 && len(r.segs[k].facts) < unit {
		s := r.segs[k]
		if s.owner != r.id {
			n := len(s.facts)
			s = &segment{owner: r.id, facts: append(make([]*term.Fact, 0, min(unit, n+max(n, more))), s.facts...)}
			r.segs[k] = s
		}
		s.facts = append(s.facts, f)
	} else {
		s := &segment{owner: r.id, facts: make([]*term.Fact, 1, min(unit, more))}
		s.facts[0] = f
		r.segs = append(r.segs, s)
	}
	if p := r.indexes.Load(); p != nil {
		for _, ix := range *p {
			ix.add(r.id, f)
		}
	}
}

// cut removes the facts of segment si that drop selects, preserving the
// order of the rest, and returns how many went.  An emptied segment is left
// in place for the caller to sweep from the directory.
func (r *Relation) cut(si int, drop func(*term.Fact) bool) int {
	s := r.segs[si]
	first := slices.IndexFunc(s.facts, drop)
	if first < 0 {
		return 0
	}
	if s.owner != r.id {
		s = &segment{owner: r.id, facts: slices.Clone(s.facts)}
		r.segs[si] = s
	}
	n := len(s.facts)
	s.facts = s.facts[:first+len(slices.DeleteFunc(s.facts[first:], drop))] // DeleteFunc clears the tail
	return n - len(s.facts)
}

// unlink removes the canonical facts gone (already out of the intern
// tables) from the insertion order and from every built index.  Segments
// are searched newest first — a retraction mostly undoes a recent insertion
// — and the search stops with the last fact found.
func (r *Relation) unlink(gone []*term.Fact, drop func(*term.Fact) bool) {
	left, emptied := len(gone), false
	for si := len(r.segs) - 1; si >= 0 && left > 0; si-- {
		left -= r.cut(si, drop)
		emptied = emptied || len(r.segs[si].facts) == 0
	}
	if emptied {
		r.segs = slices.DeleteFunc(r.segs, func(s *segment) bool { return len(s.facts) == 0 })
	}
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
	g := r.table(h).get(h, f)
	if g == nil {
		return false
	}
	r.own(h).remove(h, g)
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
		if g := r.table(h).get(h, f); g != nil {
			r.own(h).remove(h, g)
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
// intern table and index bucket with r and copies only the directories that
// point at them; writes through the fork copy the units they land in, so r —
// frozen, and so never written again — never changes under its readers.
// Indexes r builds later are r's alone.
func (r *Relation) fork() *Relation {
	nr := &Relation{
		Name:      r.Name,
		id:        forkIDs.Add(1),
		n:         r.n,
		segs:      slices.Clone(r.segs),
		shards:    slices.Clone(r.shards),
		shardBits: r.shardBits,
		useIdx:    r.useIdx,
	}
	if p := r.indexes.Load(); p != nil {
		next := make([]*index, len(*p))
		for i, ix := range *p {
			c := *ix
			c.shards = slices.Clone(ix.shards)
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
		shards: []*idxShard{newIdxShard(r.id, min(r.n, unit))},
	}
	for _, s := range r.segs {
		for _, f := range s.facts {
			ix.add(r.id, f)
		}
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
	for _, s := range r.segs {
	scan:
		for _, f := range s.facts {
			for i, c := range cols {
				if c >= len(f.Args) || !term.Equal(f.Args[c], vals[i]) {
					continue scan
				}
			}
			out = append(out, f)
		}
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
			if r.n >= IndexThreshold {
				return r.buildIndex(mask, cols).probe(vals), true
			}
		}
	}
	return r.scanCols(cols, vals), false
}

// Indexed reports whether LookupCols(cols, ...) would be answered by an
// index, built already or built by that call, without building one.
func (r *Relation) Indexed(cols []int) bool {
	mask, ok := colsMask(cols)
	return r.useIdx && len(cols) > 0 && ok && (r.findIndex(mask) != nil || r.n >= IndexThreshold)
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
// fork of it first (Relation.fork copies its directories, and each later
// write the units it lands in).  The result stays writable until the
// database is next cloned.
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
// it never mutates the database, so concurrent readers (parallel rule
// workers) may call it while no writer is active.  Callers must treat the
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
		if !r.frozen.Load() { // so that cloning a clone writes nothing
			r.frozen.Store(true)
		}
		out.rels[p] = r
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
