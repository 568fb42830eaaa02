package store

import "ldl1/internal/term"

// InsertBatch adds the facts in one batch, returning how many were new.
// Duplicates — against the relation and within the batch — are discarded.
// The batch path differs from repeated Insert in three ways: the relation
// is resharded once for the size it is about to have, intern tables are
// pre-sized once instead of grown doubling by doubling, and the segments the
// new facts fill are allocated at their final size.  New facts land in input
// order.  InsertBatch is single-writer, like Insert.
func (r *Relation) InsertBatch(fs []*term.Fact) int {
	if len(fs) == 0 {
		return 0
	}
	r.checkWrite()
	r.ensureTables()
	if nsh := r.shardsFor(r.n + len(fs)); nsh > r.shards.len() {
		r.reshard(nsh)
	}

	// Hash every fact, then grow each intern table once for its share of
	// the batch.  A table shared with a relation this one was forked from
	// is copied first.  The tables are looked up once per shard, not once
	// per fact through the directory.
	hs := make([]uint64, len(fs))
	counts := make([]int, r.shards.len())
	for i, f := range fs {
		hs[i] = hashFact(f)
		counts[r.shard(hs[i])]++
	}
	tables := make([]*factTable, len(counts))
	for si, c := range counts {
		if c > 0 {
			tables[si] = r.own(si)
			tables[si].reserve(c)
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
		if t.n > 0 && t.get(hs[i], f) != nil {
			continue
		}
		t.insert(hs[i], f)
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

// reshard redistributes the intern tables over n shards (a power of two
// larger than the current count).  The insertion order is untouched; only
// point-op routing changes.  Exclusive-writer only.
func (r *Relation) reshard(n int) {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	next := dir[*factTable]{flat: make([]*factTable, 0, min(n, unit))}
	for range n {
		t := newFactTable(r.n/n + 1)
		t.owner = r.id
		next.push(r.id, t)
	}
	r.shards.each(func(t *factTable) {
		for _, g := range t.entries {
			if g == nil || g == tombstone {
				continue
			}
			h := hashFact(g)
			next.at(int(h>>(64-bits))).insert(h, g)
		}
	})
	r.shards = next
	r.shardBits = bits
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
