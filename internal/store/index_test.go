package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ldl1/internal/term"
)

// builtIndexes returns the published index snapshot (nil when no index has
// been built), for white-box assertions.
func builtIndexes(r *Relation) []*index {
	if p := r.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// scanCols is the reference for a column probe: the facts of r, in order,
// whose arguments at cols equal vals.
func scanCols(r *Relation, cols []int, vals []term.Term) []*term.Fact {
	var out []*term.Fact
	for _, f := range r.All() {
		if slices.EqualFunc(cols, vals, func(c int, v term.Term) bool { return c < len(f.Args) && term.Equal(f.Args[c], v) }) {
			out = append(out, f)
		}
	}
	return out
}

func TestIndexThresholdSkipsSmallRelations(t *testing.T) {
	r := NewRelation("p", true)
	for i := 0; i < IndexThreshold-1; i++ {
		r.Insert(term.NewFact("p", term.Int(i%3), term.Int(i)))
	}
	got, indexed := r.LookupCols([]int{0}, []term.Term{term.Int(1)})
	if indexed {
		t.Errorf("LookupCols reported an index probe on a %d-fact relation", r.Len())
	}
	if builtIndexes(r) != nil {
		t.Errorf("index built below IndexThreshold (%d facts)", r.Len())
	}
	want := 0
	for i := 0; i < IndexThreshold-1; i++ {
		if i%3 == 1 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("scan fallback returned %d facts, want %d", len(got), want)
	}

	// Crossing the threshold enables (and builds) the index; results are
	// unchanged.
	for i := IndexThreshold - 1; i < 4*IndexThreshold; i++ {
		r.Insert(term.NewFact("p", term.Int(i%3), term.Int(i)))
	}
	got2, indexed2 := r.LookupCols([]int{0}, []term.Term{term.Int(1)})
	if !indexed2 {
		t.Errorf("LookupCols did not build an index on a %d-fact relation", r.Len())
	}
	if builtIndexes(r) == nil {
		t.Error("no index snapshot published after threshold crossed")
	}
	if want := (4*IndexThreshold + 1) / 3; len(got2) != want {
		t.Errorf("indexed lookup returned %d facts, want %d", len(got2), want)
	}
}

func TestCompositeLookup(t *testing.T) {
	for _, useIdx := range []bool{true, false} {
		r := NewRelation("p", useIdx)
		for i := 0; i < 120; i++ {
			r.Insert(term.NewFact("p",
				term.Int(i%4), term.Int(i%5), term.Atom(fmt.Sprintf("x%d", i))))
		}
		for a := 0; a < 4; a++ {
			for b := 0; b < 5; b++ {
				got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
				want := scanCols(r, []int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
				if len(got) != len(want) {
					t.Fatalf("useIdx=%v: LookupCols(0=%d,1=%d) = %d facts, scan says %d",
						useIdx, a, b, len(got), len(want))
				}
				for _, f := range got {
					if !term.Equal(f.Args[0], term.Int(a)) || !term.Equal(f.Args[1], term.Int(b)) {
						t.Fatalf("useIdx=%v: stray fact %s", useIdx, f)
					}
				}
			}
		}
		// Absent pair.
		if got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(9), term.Int(9)}); len(got) != 0 {
			t.Fatalf("useIdx=%v: absent pair returned %d facts", useIdx, len(got))
		}
	}
}

func TestCompositeIndexMaintainedByInsert(t *testing.T) {
	r := NewRelation("p", true)
	for i := 0; i < 2*IndexThreshold; i++ {
		r.Insert(term.NewFact("p", term.Int(i%2), term.Int(i%3), term.Int(i)))
	}
	// Build single-column and composite indexes.
	r.LookupCols([]int{1}, []term.Term{term.Int(0)})
	r.LookupCols([]int{0, 1}, []term.Term{term.Int(0), term.Int(0)})
	if n := len(builtIndexes(r)); n != 2 {
		t.Fatalf("expected 2 indexes, snapshot has %d", n)
	}
	before, indexed := r.LookupCols([]int{0, 1}, []term.Term{term.Int(1), term.Int(2)})
	if !indexed {
		t.Fatal("composite probe not indexed")
	}
	f := term.NewFact("p", term.Int(1), term.Int(2), term.Int(999))
	r.Insert(f)
	after, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(1), term.Int(2)})
	if len(after) != len(before)+1 {
		t.Fatalf("composite index not maintained: %d -> %d facts", len(before), len(after))
	}
	single, _ := r.LookupCols([]int{1}, []term.Term{term.Int(2)})
	found := false
	for _, g := range single {
		if g == f {
			found = true
		}
	}
	if !found {
		t.Error("single-column index not maintained by Insert")
	}
}

func TestCompositeLookupAllHashesCollide(t *testing.T) {
	defer forceCollisions(t)()

	r := NewRelation("p", true)
	for i := 0; i < 60; i++ {
		r.Insert(term.NewFact("p", term.Int(i%3), term.Int(i%4), term.Int(i)))
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 4; b++ {
			got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
			want := scanCols(r, []int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
			if len(got) != len(want) {
				t.Fatalf("colliding hashes: LookupCols(%d,%d) = %d facts, want %d", a, b, len(got), len(want))
			}
		}
	}
}

// TestConcurrentLookupBuild races many readers against the first index
// build; run under -race this exercises the lock-free snapshot path and
// the double-checked construction.
func TestConcurrentLookupBuild(t *testing.T) {
	r := NewRelation("p", true)
	for i := 0; i < 400; i++ {
		r.Insert(term.NewFact("p", term.Int(i%10), term.Int(i%7), term.Int(i)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				a, b := (g+k)%10, k%7
				got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(a), term.Int(b)})
				for _, f := range got {
					if !term.Equal(f.Args[0], term.Int(a)) || !term.Equal(f.Args[1], term.Int(b)) {
						errs <- fmt.Sprintf("goroutine %d: stray fact %s", g, f)
						return
					}
				}
				single, _ := r.LookupCols([]int{1}, []term.Term{term.Int(b)})
				if len(single) == 0 {
					errs <- fmt.Sprintf("goroutine %d: empty single-column lookup", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := len(builtIndexes(r)); n != 2 {
		t.Errorf("expected exactly 2 indexes after racing builds, got %d", n)
	}
}

// TestSharedBucketCopiedOnce: the first write of a fork to an index bucket
// it shares with the relation it was forked from copies the bucket once,
// with room for the fact it pushes and none past it, and the entry keeps
// the key of the fact that opened it without a copy of its own.
func TestSharedBucketCopiedOnce(t *testing.T) {
	a := term.Atom("a")
	key := []term.Term{a}
	h := keyOf(key)
	for _, n := range []int{2, 8, 40} {
		db := NewDB()
		for i := range n + IndexThreshold { // the facts past n open a second bucket
			k := term.Atom("b")
			if i < n {
				k = a
			}
			db.Insert(term.NewFact("e", k, term.Int(int64(i))))
		}
		db.Rel("e").ScanCols([]int{0}, key, func([]*term.Fact) error { return nil })
		shared := builtIndexes(db.RelOrNil("e"))[0]
		fork := db.Clone()
		fork.Insert(term.NewFact("e", a, term.Int(-1)))
		r := fork.RelOrNil("e")
		ix := builtIndexes(r)[0]
		sh := ix.shards.at(shardOf(h, ix.bits))
		i := find(sh, h, key)
		e := sh.slots[i]
		if e.facts.len() != n+1 || cap(e.facts.flat) != n+1 {
			t.Errorf("a shared bucket of %d facts holds %d with capacity %d after a push on a fork, want %d and %d",
				n, e.facts.len(), cap(e.facts.flat), n+1, n+1)
		}
		if &e.vals[0] != &e.facts.flat[0].Args[0] {
			t.Errorf("the entry of a keeps a copy of its key")
		}

		// Each push below starts from the bucket the fork shares: one entry
		// and one bucket copied, and the push takes no third allocation.
		orig := shared.shards.at(shardOf(h, shared.bits)).slots[i]
		f := term.NewFact("e", a, term.Int(-2))
		allocs := testing.AllocsPerRun(20, func() {
			sh.slots[i] = orig
			ix.add(r.id, f)
		})
		if allocs != 2 {
			t.Errorf("a push into a shared bucket of %d facts allocates %.0f objects, want 2 (the entry and the bucket)", n, allocs)
		}
	}
}
