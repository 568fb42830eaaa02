package store

import (
	"sync"

	"ldl1/internal/term"
)

// Bulk loading.  InsertBatch partitions the input by fact-hash shard and
// then processes whole shards independently: each shard's worker dedupes
// against (and inserts into) only its own intern table, so workers share no
// mutable state and need no locks.  Because a shard is always processed by
// exactly one worker, in input order, the resulting relation state — and
// therefore the fact order — is identical for every worker count, including
// the degenerate single-goroutine run.

// InsertBatch adds the facts in one batch, returning how many were new.
// Duplicates — against the relation and within the batch — are discarded.
// The batch path differs from repeated Insert in two ways: intern tables
// are pre-sized once instead of grown doubling by doubling, and a large
// batch first reshards the relation (per opts.Shards) so interning runs
// shard-parallel with opts.Workers goroutines.  Facts land in shard-major
// order, so single-shard relations (the default for everything but bulk
// loads) keep exact input order.  InsertBatch is single-writer, like Insert.
func (r *Relation) InsertBatch(fs []*term.Fact, opts LoadOpts) int {
	if len(fs) == 0 {
		return 0
	}
	r.ensureTables()
	if t := normalizeShards(opts.Shards); t > len(r.shards) && len(fs) >= reshardMin {
		r.reshard(t)
	}
	nsh := len(r.shards)

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
			counts[r.shardOf(h)]++
		}
		buckets = make([][]int32, nsh)
		for si := range buckets {
			buckets[si] = make([]int32, 0, counts[si])
		}
		for i, h := range hs {
			si := r.shardOf(h)
			buckets[si] = append(buckets[si], int32(i))
		}
	}

	// Phase B: intern each shard's slice of the batch, one worker per
	// shard at a time, results kept shard-local.
	results := make([][]*term.Fact, nsh)
	workers := opts.Workers
	if workers > nsh {
		workers = nsh
	}
	if workers > 1 {
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				for si := wi; si < nsh; si += workers {
					results[si] = r.shards[si].load(fs, hs, buckets[si])
				}
			}(wi)
		}
		wg.Wait()
	} else {
		for si := 0; si < nsh; si++ {
			var b []int32
			if buckets != nil {
				b = buckets[si]
			}
			results[si] = r.shards[si].load(fs, hs, b)
		}
	}

	// Phase C (serial): splice shard results into the relation-global
	// bookkeeping — fact order and indexes.
	idxs := r.indexes.Load()
	added := 0
	for _, fresh := range results {
		r.facts = append(r.facts, fresh...)
		if idxs != nil {
			for _, f := range fresh {
				for _, ix := range *idxs {
					ix.add(f)
				}
			}
		}
		added += len(fresh)
	}
	return added
}

// load interns one shard's candidates and returns the facts that were new,
// in input order.  cand is the bucketed input positions, or nil for "the
// whole batch" (single-shard relations skip bucketing).  It touches only
// the table itself.
func (t *factTable) load(fs []*term.Fact, hs []uint64, cand []int32) []*term.Fact {
	n := len(cand)
	if cand == nil {
		n = len(fs)
	}
	t.reserve(n)
	// A fresh bulk load probes an empty intern table; skip that probe until
	// an insert makes the table non-empty.
	probe := t.n > 0
	var fresh []*term.Fact
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
		fresh = append(fresh, f)
		probe = true
	}
	return fresh
}

// reshard redistributes the intern tables over n shards (a power of two
// larger than the current count).  The fact slice — and with it, iteration
// order — is untouched; only point-op routing changes.
// Exclusive-writer only.
func (r *Relation) reshard(n int) {
	bits := shardBitsFor(n)
	next := make([]*factTable, n)
	hint := len(r.facts)/n + 1
	for i := range next {
		next[i] = newFactTable(hint)
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

// normalizeShards clamps a requested shard count to a power of two in
// [1, maxShards]; 0 stays 0 ("keep current").
func normalizeShards(n int) int {
	if n <= 0 {
		return 0
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// LoadFacts bulk-inserts facts across relations, returning how many were
// new.  Facts are grouped by predicate (first-appearance order) and each
// group goes through Relation.InsertBatch; opts.Shards defaults to the
// database's configured shard count.  Like all mutation, LoadFacts is
// single-writer.
func (db *DB) LoadFacts(fs []*term.Fact, opts LoadOpts) int {
	if len(fs) == 0 {
		return 0
	}
	if opts.Shards == 0 {
		opts.Shards = db.cfg.Shards
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
		n = db.mutableRel(fs[0].Pred).InsertBatch(fs, opts)
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
			n += db.mutableRel(p).InsertBatch(groups[p], opts)
		}
	}
	db.sizeAdd(n)
	return n
}
