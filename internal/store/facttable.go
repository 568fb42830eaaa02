package store

import (
	"slices"

	"ldl1/internal/term"
)

// factTable is an open-addressed hash table of interned facts: the fact
// identity structure behind Relation and FactSet.  Compared with a Go map
// keyed by hash, it stores one pointer per entry (no per-bucket slice
// allocations), probes linearly with the memoized structural hash, and
// never rehashes strings.  Collisions — distinct facts sharing a 64-bit
// hash — simply probe past each other and are told apart by
// term.EqualFacts.  Deletion (incremental maintenance retracts facts)
// leaves a tombstone so later entries in the probe chain stay reachable;
// tombstone slots are reused by insert and swept out on growth and when a
// fork copies the table for writing.
type factTable struct {
	owner   uint64       // the Relation allowed to write in place; see forkIDs
	entries []*term.Fact // power-of-two sized; nil slots are empty
	n       int          // live entries
	dead    int          // tombstone slots awaiting reuse or sweep
}

// tombstone marks a deleted slot.  It is compared by pointer identity only
// and never escapes the table.
var tombstone = &term.Fact{Pred: "\x00deleted"}

const factTableMinSize = 8

// tableSize is the slot count of an open-addressed table expected to hold
// hint entries: the smallest power of two that keeps the load below 3/4.
func tableSize(hint int) int {
	size := factTableMinSize
	for size*3 < hint*4 {
		size *= 2
	}
	return size
}

func newFactTable(hint int) *factTable {
	return &factTable{entries: make([]*term.Fact, tableSize(hint))}
}

// get returns the interned fact equal to f (whose hash is h), or nil.
func (t *factTable) get(h uint64, f *term.Fact) *term.Fact {
	if len(t.entries) == 0 {
		return nil
	}
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; t.entries[i] != nil; i = (i + 1) & mask {
		if g := t.entries[i]; g != tombstone && hashFact(g) == h && term.EqualFacts(g, f) {
			return g
		}
	}
	return nil
}

// getArgs returns the interned fact equal to pred(args...) (whose hash is
// h), or nil — the allocation-free counterpart of get for duplicate checks
// on facts that have not been constructed.
func (t *factTable) getArgs(h uint64, pred string, args []term.Term) *term.Fact {
	if len(t.entries) == 0 {
		return nil
	}
	mask := uint64(len(t.entries) - 1)
probe:
	for i := h & mask; t.entries[i] != nil; i = (i + 1) & mask {
		g := t.entries[i]
		if g == tombstone || hashFact(g) != h || g.Pred != pred || len(g.Args) != len(args) {
			continue
		}
		for j := range args {
			if !term.Equal(g.Args[j], args[j]) {
				continue probe
			}
		}
		return g
	}
	return nil
}

// insert places f (whose hash is h) into the table.  The caller must have
// checked with get that no equal fact is present.  The first tombstone on
// the probe path is reused.
func (t *factTable) insert(h uint64, f *term.Fact) {
	if (t.n+t.dead+1)*4 > len(t.entries)*3 {
		t.grow()
	}
	mask := uint64(len(t.entries) - 1)
	i := h & mask
	for t.entries[i] != nil {
		if t.entries[i] == tombstone {
			t.dead--
			break
		}
		i = (i + 1) & mask
	}
	t.entries[i] = f
	t.n++
}

// remove deletes the entry holding exactly g (a canonical pointer returned
// by get), leaving a tombstone so probe chains through the slot survive.
func (t *factTable) remove(h uint64, g *term.Fact) bool {
	if len(t.entries) == 0 {
		return false
	}
	mask := uint64(len(t.entries) - 1)
	for i := h & mask; t.entries[i] != nil; i = (i + 1) & mask {
		if t.entries[i] == g {
			t.entries[i] = tombstone
			t.n--
			t.dead++
			return true
		}
	}
	return false
}

func (t *factTable) grow() { t.growTo(t.n) }

// reserve grows the table ahead of a batch of extra insertions, so bulk
// loads rehash at most once instead of doubling through every size.
func (t *factTable) reserve(extra int) {
	if (t.n+t.dead+extra)*4 > len(t.entries)*3 {
		t.growTo(t.n + extra)
	}
}

// growTo rebuilds the table with room for target entries, never smaller
// than it is.  Tombstones are swept on every rebuild, so a delete-heavy
// workload that hovers around one size re-compacts in place instead of
// growing.
func (t *factTable) growTo(target int) {
	size := max(len(t.entries), factTableMinSize)
	for target*4 >= size*3 {
		size *= 2
	}
	t.entries = rehashed(t.entries, size)
	t.dead = 0
}

// rehashed returns the live facts of old in a fresh table of size slots.
func rehashed(old []*term.Fact, size int) []*term.Fact {
	entries := make([]*term.Fact, size)
	mask := uint64(size - 1)
	for _, f := range old {
		if f == nil || f == tombstone {
			continue
		}
		i := hashFact(f) & mask
		for entries[i] != nil {
			i = (i + 1) & mask
		}
		entries[i] = f
	}
	return entries
}

// cloneFor returns a copy of the table that the relation numbered owner may
// write.  The copy is where a table under churn gets clean: a table at
// steady size never grows, so growth alone would let its tombstones — and
// with them every probe chain — only lengthen.  Past a quarter of the live
// entries the copy is a rebuild instead.
func (t *factTable) cloneFor(owner uint64) *factTable {
	if t.dead*4 > t.n {
		return &factTable{owner: owner, entries: rehashed(t.entries, len(t.entries)), n: t.n}
	}
	return &factTable{owner: owner, entries: slices.Clone(t.entries), n: t.n, dead: t.dead}
}
