package store

import (
	"sync"

	"ldl1/internal/term"
)

// Bulk loading.  InsertBatch partitions the input by fact-hash shard and
// then processes whole shards independently: each shard's worker dedupes
// against (and inserts into) only its own intern table, so workers share no
// mutable state and need no locks.  Because a shard is always processed by
// exactly one worker, in input order, which facts are new does not depend on
// the worker count, and they join the relation in input order.

// reshardMin is the batch size below which InsertBatch does not add shards
// for its workers' sake: spreading a few hundred facts over more tables
// costs more in fixed per-shard state than parallel interning recovers.
const reshardMin = 1024

// InsertBatch adds the facts in one batch, returning how many were new.
// Duplicates — against the relation and within the batch — are discarded.
// The batch path differs from repeated Insert in three ways: the relation
// is resharded once for the size it is about to have (and, for a large
// batch, for at least opts.Workers shards, so interning runs shard-parallel),
// intern tables are pre-sized once instead of grown doubling by doubling,
// and the segments the new facts fill are allocated at their final size.
// New facts land in input order.  InsertBatch is single-writer, like Insert.
func (r *Relation) InsertBatch(fs []*term.Fact, opts LoadOpts) int {
	if len(fs) == 0 {
		return 0
	}
	r.checkWrite()
	r.ensureTables()
	nsh := r.shardsFor(r.n + len(fs))
	for len(fs) >= reshardMin && nsh < opts.Workers {
		nsh *= 2
	}
	if nsh > len(r.shards) {
		r.reshard(nsh)
	}

	// Phase A (serial): hash every fact — Hash memoizes lazily, so this
	// must not race — and bucket input positions by shard.
	hs := make([]uint64, len(fs))
	for i, f := range fs {
		hs[i] = hashFact(f)
	}
	var buckets [][]int32
	if nsh > 1 {
		counts := make([]int, nsh)
		for _, h := range hs {
			counts[h>>(64-r.shardBits)]++
		}
		buckets = make([][]int32, nsh)
		for si := range buckets {
			buckets[si] = make([]int32, 0, counts[si])
		}
		for i, h := range hs {
			si := h >> (64 - r.shardBits)
			buckets[si] = append(buckets[si], int32(i))
		}
	}

	// Phase B: intern each shard's slice of the batch, one worker per
	// shard at a time, each marking its new facts in its own positions of
	// fresh.  A table shared with a relation this one was forked from is
	// copied by the worker that is about to write it.
	fresh := make([]bool, len(fs))
	load := func(si int) {
		var b []int32
		if buckets != nil {
			if b = buckets[si]; len(b) == 0 {
				return
			}
		}
		if t := r.shards[si]; t.owner != r.id {
			r.shards[si] = t.cloneFor(r.id)
		}
		r.shards[si].load(fs, hs, b, fresh)
	}
	if workers := min(opts.Workers, nsh); workers > 1 {
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				for si := wi; si < nsh; si += workers {
					load(si)
				}
			}(wi)
		}
		wg.Wait()
	} else {
		for si := 0; si < nsh; si++ {
			load(si)
		}
	}

	// Phase C (serial): append the new facts to the relation-global
	// bookkeeping — fact order and indexes — in input order.
	added := 0
	for _, isNew := range fresh {
		if isNew {
			added++
		}
	}
	for i, left := 0, added; left > 0; i++ {
		if fresh[i] {
			r.push(fs[i], left)
			left--
		}
	}
	return added
}

// load interns one shard's candidates and marks the ones that were new in
// fresh.  cand is the bucketed input positions, or nil for "the whole
// batch" (single-shard relations skip bucketing).  It touches only the
// table itself and the candidates' positions of fresh.
func (t *factTable) load(fs []*term.Fact, hs []uint64, cand []int32, fresh []bool) {
	n := len(cand)
	if cand == nil {
		n = len(fs)
	}
	t.reserve(n)
	// A fresh bulk load probes an empty intern table; skip that probe until
	// an insert makes the table non-empty.
	probe := t.n > 0
	for k := 0; k < n; k++ {
		fi := k
		if cand != nil {
			fi = int(cand[k])
		}
		f, h := fs[fi], hs[fi]
		if probe && t.get(h, f) != nil {
			continue
		}
		t.insert(h, f)
		fresh[fi] = true
		probe = true
	}
}

// reshard redistributes the intern tables over n shards (a power of two
// larger than the current count).  The insertion order is untouched; only
// point-op routing changes.  Exclusive-writer only.
func (r *Relation) reshard(n int) {
	bits := uint(0)
	for 1<<bits < n {
		bits++
	}
	next := make([]*factTable, n)
	for i := range next {
		next[i] = newFactTable(r.n/n + 1)
		next[i].owner = r.id
	}
	for _, t := range r.shards {
		for _, g := range t.entries {
			if g == nil || g == tombstone {
				continue
			}
			h := hashFact(g)
			next[h>>(64-bits)].insert(h, g)
		}
	}
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
		n = db.Rel(fs[0].Pred).InsertBatch(fs, opts)
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
			n += db.Rel(p).InsertBatch(groups[p], opts)
		}
	}
	return n
}
