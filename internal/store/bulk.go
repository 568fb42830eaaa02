package store

import (
	"slices"

	"ldl1/internal/term"
)

// InsertBatch adds the facts in one batch, returning how many were new.
// Duplicates — against the relation and within the batch — are discarded.
// The batch path differs from repeated Insert in three ways: the shard
// directory deepens once for the size the relation is about to have, each
// intern table the batch reaches is rebuilt once at the size of its share
// instead of split or grown fact by fact, and the segments the new facts
// fill are allocated at their final size.  New facts land in input order.
// InsertBatch is single-writer, like Insert.
func (r *Relation) InsertBatch(fs []*term.Fact) int {
	if len(fs) == 0 {
		return 0
	}
	r.checkWrite()
	r.ensureTables()
	bits := r.shardBits
	for r.n+len(fs) > unit<<bits {
		bits++
	}
	if bits > r.shardBits {
		r.shards = r.shards.spread(r.id, 1<<(bits-r.shardBits))
		r.shardBits = bits
	}

	// Hash every fact, then deal each table the batch reaches out into one
	// table per directory entry it is listed at.  The tables are looked up
	// once per entry, not once per fact through the directory.
	hs := make([]uint64, len(fs))
	counts := make([]int, r.shards.len())
	for i, f := range fs {
		hs[i] = hashFact(f)
		counts[r.shard(hs[i])]++
	}
	tables := make([]*factTable, len(counts))
	for si, c := range counts {
		if c > 0 && tables[si] == nil {
			t := r.shards.at(si)
			lo, n := span(si, bits, t.depth)
			copy(tables[lo:lo+n], r.deal(t, lo, counts[lo:lo+n]))
		}
	}

	// Intern the batch, marking its new facts in fresh; a fresh bulk load
	// skips the probe of a table until an insert makes it non-empty.  Then
	// append the new facts to the relation-global bookkeeping — fact order
	// and indexes — in input order.
	fresh := make([]bool, len(fs))
	added := 0
	for i, f := range fs {
		t := tables[r.shard(hs[i])]
		if t.n > 0 && get(t, hs[i], f) != nil {
			continue
		}
		t.insert(hs[i], f, hashFact)
		fresh[i] = true
		added++
	}
	for i, left := 0, added; left > 0; i++ {
		if fresh[i] {
			r.push(fs[i], left)
			left--
		}
	}
	return added
}

// deal replaces t, listed at the directory entries from lo, by one table per
// entry, as deep as the directory, each sized for the facts of t it takes
// and its share of a batch, and returns them.  t itself, which may be shared
// with a relation this one was forked from, is not written.
func (r *Relation) deal(t *factTable, lo int, shares []int) []*factTable {
	sizes := slices.Clone(shares)
	for _, g := range t.slots {
		if g != nil {
			sizes[r.shard(hashFact(g))-lo]++
		}
	}
	ts := make([]*factTable, len(shares))
	for k, n := range sizes {
		ts[k] = &factTable{owner: r.id, slots: make([]*term.Fact, tableSize(n)), depth: uint8(r.shardBits), sized: true}
		r.shards.set(r.id, lo+k, ts[k])
	}
	for _, g := range t.slots {
		if g != nil {
			h := hashFact(g)
			ts[r.shard(h)-lo].insert(h, g, hashFact)
		}
	}
	return ts
}

// LoadFacts bulk-inserts facts across relations, returning how many were
// new.  Facts are grouped by predicate (first-appearance order) and each
// group goes through Relation.InsertBatch.  Like all mutation, LoadFacts is
// single-writer.
func (db *DB) LoadFacts(fs []*term.Fact, opts LoadOpts) int {
	if len(fs) == 0 {
		return 0
	}
	// Single-predicate batches (the common bulk shape) skip grouping.
	single := true
	for _, f := range fs[1:] {
		if f.Pred != fs[0].Pred {
			single = false
			break
		}
	}
	n := 0
	if single {
		n = db.Rel(fs[0].Pred).InsertBatch(fs)
	} else {
		groups := make(map[string][]*term.Fact)
		var order []string
		for _, f := range fs {
			if _, seen := groups[f.Pred]; !seen {
				order = append(order, f.Pred)
			}
			groups[f.Pred] = append(groups[f.Pred], f)
		}
		for _, p := range order {
			n += db.Rel(p).InsertBatch(groups[p])
		}
	}
	return n
}
