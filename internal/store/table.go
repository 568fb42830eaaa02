package store

import (
	"slices"

	"ldl1/internal/term"
)

// table is an open-addressed hash table of the entries whose hashes share
// their top depth bits — one shard of a directory — at most three quarters
// full and probed linearly from the low hash bits.  Compared with a Go map
// keyed by hash, it stores one pointer per entry (no per-bucket slice
// allocations) and never rehashes keys: entries carry or memoize their hash.
// Entries sharing a hash probe past each other and are told apart by the
// lookups, which are written per entry type (get and getArgs on facts, find
// on index keys).  A delete closes its gap by backward shift, so no probe
// steps over a deleted slot and a table under churn stays as clean as a
// fresh one.
type table[T comparable] struct {
	owner uint64 // the relation allowed to write in place; see forkIDs
	slots []T    // power-of-two sized; zero slots are empty
	n     int    // entries held
	depth uint8  // top hash bits its entries share (room)
	sized bool   // a bulk load sized it, possibly past unit slots
}

// factTable is a relation's or a FactSet's intern table: the fact identity
// structure.  Facts sharing a 64-bit hash are told apart by term.EqualFacts.
type factTable = table[*term.Fact]

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
	return &factTable{slots: make([]*term.Fact, tableSize(hint))}
}

// get returns the fact of t equal to f (whose hash is h), or nil.
func get(t *factTable, h uint64, f *term.Fact) *term.Fact {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; t.slots[i] != nil; i = (i + 1) & mask {
		if g := t.slots[i]; hashFact(g) == h && term.EqualFacts(g, f) {
			return g
		}
	}
	return nil
}

// getArgs returns the fact of t equal to pred(args...) (whose hash is h), or
// nil — the allocation-free counterpart of get for duplicate checks on facts
// that have not been constructed.
func getArgs(t *factTable, h uint64, pred string, args []term.Term) *term.Fact {
	mask := uint64(len(t.slots) - 1)
probe:
	for i := h & mask; t.slots[i] != nil; i = (i + 1) & mask {
		g := t.slots[i]
		if hashFact(g) != h || g.Pred != pred || len(g.Args) != len(args) {
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

// full reports whether one more entry would take the table past 3/4 load.
func (t *table[T]) full() bool { return (t.n+1)*4 > len(t.slots)*3 }

// insert places e, whose hash is h, in the table, doubling the table first
// if it is full.  The caller has checked that no equal entry is present.
func (t *table[T]) insert(h uint64, e T, hash func(T) uint64) {
	if t.full() {
		var empty T
		old := t.slots
		t.slots = make([]T, 2*len(old))
		for _, o := range old {
			if o != empty {
				place(t.slots, hash(o), o)
			}
		}
	}
	place(t.slots, h, e)
	t.n++
}

// remove deletes exactly e (an entry a lookup returned), whose hash is h,
// and closes the gap: every entry of the probe run behind it that may move
// back towards its home slot does.
func (t *table[T]) remove(h uint64, e T, hash func(T) uint64) {
	var empty T
	mask := len(t.slots) - 1
	i := int(h) & mask
	for t.slots[i] != e {
		i = (i + 1) & mask
	}
	t.n--
	for j := i; ; {
		t.slots[i] = empty
		for {
			j = (j + 1) & mask
			o := t.slots[j]
			if o == empty {
				return
			}
			// o may fill the gap unless its home slot lies in (i, j].
			if home := int(hash(o)) & mask; (home-i-1)&mask >= (j-i)&mask {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// place puts e, whose hash is h, in the first empty slot of its probe run.
func place[T comparable](slots []T, h uint64, e T) {
	var empty T
	mask := uint64(len(slots) - 1)
	i := h & mask
	for slots[i] != empty {
		i = (i + 1) & mask
	}
	slots[i] = e
}

// shardOf returns the entry of a shard directory of depth bits that hash h
// goes to: the top hash bits pick the shard, because the tables consume the
// low bits.
func shardOf(h uint64, bits uint) int { return int(h >> (64 - bits)) }

// own returns the table of the shard directory d (of depth bits) that hash h
// goes to, for a write by the relation numbered id: a table that belongs to a
// relation this one was forked from is copied first, slots and all, and the
// copy listed at every directory entry that listed the original.  The
// entries stay shared.
func own[T comparable](d *dir[*table[T]], bits uint, id, h uint64) *table[T] {
	si := shardOf(h, bits)
	t := d.at(si)
	if t.owner != id {
		c := *t
		c.owner, c.slots = id, slices.Clone(t.slots)
		lo, n := span(si, bits, c.depth)
		d.fill(id, lo, n, &c)
		return &c
	}
	return t
}

// room returns the table of d that hash h goes to, owned by id, for a new
// entry.  A full table of unit slots or more splits by its next hash bit
// instead of growing: the entries whose bit is 1 move to a new table, the
// others stay, and the directory doubles only when the table was as deep as
// it.  A table whose entries the bit does not separate grows instead.
func room[T comparable](d *dir[*table[T]], bits *uint, id, h uint64, hash func(T) uint64) *table[T] {
	t := own(d, *bits, id, h)
	if !t.full() || len(t.slots) < unit {
		return t
	}
	hi, moved := splitSlots(t.slots, hash, 1<<(63-t.depth))
	if hi == nil {
		return t
	}
	t.n, t.depth = t.n-moved, t.depth+1
	d.split(id, bits, shardOf(h, *bits), t.depth, &table[T]{owner: id, slots: hi, n: moved, depth: t.depth, sized: t.sized})
	return d.at(shardOf(h, *bits))
}

// splitSlots is how a full table splits (room): the entries of slots whose
// hash has bit set move to a new table sized for them, returned with their
// count, and the others are re-placed in slots in one pass.  It changes
// nothing and returns nil when the bit sends every entry the same way.
func splitSlots[T comparable](slots []T, hash func(T) uint64, bit uint64) (hi []T, moved int) {
	var empty T
	live, start := 0, -1
	for i, e := range slots {
		if e == empty {
			if start < 0 {
				start = i
			}
			continue
		}
		live++
		if hash(e)&bit != 0 {
			moved++
		}
	}
	if moved == 0 || moved == live {
		return nil, 0
	}
	hi = make([]T, tableSize(moved))
	// Starting just after a slot empty before any entry left, every probe
	// run starts inside the pass: an entry lands at or before its old slot.
	mask := len(slots) - 1
	for k := 1; k <= len(slots); k++ {
		i := (start + k) & mask
		e := slots[i]
		if e == empty {
			continue
		}
		slots[i] = empty
		if h := hash(e); h&bit != 0 {
			place(hi, h, e)
		} else {
			place(slots, h, e)
		}
	}
	return hi, moved
}
