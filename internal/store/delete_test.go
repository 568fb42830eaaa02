package store

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"ldl1/internal/term"
)

func fact(pred string, args ...int) *term.Fact {
	ts := make([]term.Term, len(args))
	for i, a := range args {
		ts[i] = term.Int(int64(a))
	}
	return term.NewFact(pred, ts...)
}

// TestRelationDelete runs the same delete / re-insert sequence with facts
// entering through single Insert and through the bulk path.
func TestRelationDelete(t *testing.T) {
	for name, put := range map[string]func(r *Relation, fs ...*term.Fact) int{
		"insert": func(r *Relation, fs ...*term.Fact) int {
			n := 0
			for _, f := range fs {
				if r.Insert(f) {
					n++
				}
			}
			return n
		},
		"batch": func(r *Relation, fs ...*term.Fact) int { return r.InsertBatch(fs) },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewRelation("p", true)
			var fs []*term.Fact
			for i := 0; i < 100; i++ {
				fs = append(fs, fact("p", i, i+1))
			}
			if put(r, fs...) != 100 {
				t.Fatal("load lost facts")
			}
			if !r.Delete(fact("p", 2, 3)) {
				t.Fatal("Delete of present fact returned false")
			}
			if r.Delete(fact("p", 2, 3)) {
				t.Fatal("second Delete of same fact returned true")
			}
			if r.Delete(fact("p", 999, 9)) {
				t.Fatal("Delete of absent fact returned true")
			}
			if r.Len() != 99 || len(r.All()) != 99 {
				t.Fatalf("Len = %d, All = %d, want 99", r.Len(), len(r.All()))
			}
			if r.Contains(fact("p", 2, 3)) {
				t.Fatal("deleted fact still present")
			}
			if args := []term.Term{term.Int(2), term.Int(3)}; r.GetArgs(term.HashFactArgs("p", args), args) != nil {
				t.Fatal("GetArgs finds deleted fact")
			}
			// Reinsert works and the fact is live again, once.
			if put(r, fact("p", 2, 3), fact("p", 2, 3)) != 1 {
				t.Fatal("reinsert after delete did not add exactly one fact")
			}
			if !r.Contains(fact("p", 2, 3)) || r.Len() != 100 {
				t.Fatal("reinserted fact missing")
			}
			// Batch delete mixing hits, a repeated victim and a miss.
			n := r.DeleteAll([]*term.Fact{fact("p", 0, 1), fact("p", 0, 1), fact("p", 999, 9), fact("p", 50, 51)})
			if n != 2 || r.Len() != 98 || len(r.All()) != 98 {
				t.Fatalf("DeleteAll removed %d, Len = %d", n, r.Len())
			}
		})
	}
}

// TestRelationDeleteStableOrder pins the satellite guarantee: retraction
// preserves the insertion order of the surviving facts, so -exp output and
// golden tests don't flake under retraction.
func TestRelationDeleteStableOrder(t *testing.T) {
	r := NewRelation("p", true)
	for i := 0; i < 8; i++ {
		r.Insert(fact("p", i))
	}
	r.Delete(fact("p", 3))
	r.Delete(fact("p", 0))
	r.Delete(fact("p", 7))
	want := []int{1, 2, 4, 5, 6}
	all := r.All()
	if len(all) != len(want) {
		t.Fatalf("len(All) = %d, want %d", len(all), len(want))
	}
	for i, f := range all {
		if !term.EqualFacts(f, fact("p", want[i])) {
			t.Fatalf("All()[%d] = %s, want p(%d)", i, f, want[i])
		}
	}
	// Insertion after deletion appends at the end, keeping order stable.
	r.Insert(fact("p", 99))
	all = r.All()
	if !term.EqualFacts(all[len(all)-1], fact("p", 99)) {
		t.Fatalf("new fact not at end: %s", all[len(all)-1])
	}
}

// TestFactTableTombstoneChurn drives insert/delete cycles well past the
// table size so growth and backward-shift deletion both run, each closing
// gaps the other left in the probe runs.
func TestFactTableTombstoneChurn(t *testing.T) {
	r := NewRelation("p", false)
	live := map[int]bool{}
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			k := round*20 + i
			r.Insert(fact("p", k))
			live[k] = true
		}
		for k := range live {
			if k%3 != 0 {
				r.Delete(fact("p", k))
				delete(live, k)
			}
		}
	}
	if r.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(live))
	}
	for k := range live {
		if !r.Contains(fact("p", k)) {
			t.Fatalf("live fact p(%d) missing", k)
		}
	}
	if r.Contains(fact("p", 1)) {
		t.Fatal("deleted fact p(1) still present")
	}
}

// TestDeleteMaintainsIndexes builds single-column and composite indexes,
// deletes through them, and checks probes see the removals.
func TestDeleteMaintainsIndexes(t *testing.T) {
	r := NewRelation("e", true)
	for i := 0; i < 64; i++ {
		r.Insert(fact("e", i%8, i))
	}
	// Build a single-column and a composite index.
	if got := lookupCol(r, 0, term.Int(3)); len(got) != 8 {
		t.Fatalf("pre-delete Lookup col0=3: %d facts, want 8", len(got))
	}
	if got, indexed := r.LookupCols([]int{0, 1}, []term.Term{term.Int(3), term.Int(11)}); !indexed || len(got) != 1 {
		t.Fatalf("pre-delete composite probe: %d facts (indexed=%v), want 1", len(got), indexed)
	}
	if !r.Delete(fact("e", 3, 11)) {
		t.Fatal("delete failed")
	}
	if got := lookupCol(r, 0, term.Int(3)); len(got) != 7 {
		t.Fatalf("post-delete Lookup col0=3: %d facts, want 7", len(got))
	}
	if got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(3), term.Int(11)}); len(got) != 0 {
		t.Fatalf("post-delete composite probe: %d facts, want 0", len(got))
	}
	// Insert after delete is visible through both indexes again.
	r.Insert(fact("e", 3, 11))
	if got := lookupCol(r, 0, term.Int(3)); len(got) != 8 {
		t.Fatalf("post-reinsert Lookup col0=3: %d facts, want 8", len(got))
	}
}

// TestDBForkCopyOnWrite: a Clone shares every relation until one side
// writes it, and then only the writer's copy changes, whichever side it is.
func TestDBForkCopyOnWrite(t *testing.T) {
	base := NewDB()
	for i := 0; i < 32; i++ {
		base.Insert(fact("p", i))
		base.Insert(fact("q", i))
	}
	w := base.Clone()

	// Writes through the clone: one relation deleted from, one inserted
	// into, one created fresh.
	if !w.Delete(fact("p", 5)) {
		t.Fatal("clone delete failed")
	}
	w.Insert(fact("q", 100))
	w.Insert(fact("r", 1))

	if !base.Contains(fact("p", 5)) {
		t.Fatal("source lost p(5) through a write to the clone")
	}
	if base.Contains(fact("q", 100)) {
		t.Fatal("source gained q(100) through a write to the clone")
	}
	if base.RelOrNil("r") != nil {
		t.Fatal("source gained relation r through a write to the clone")
	}
	if w.Contains(fact("p", 5)) {
		t.Fatal("clone still has deleted p(5)")
	}
	if !w.Contains(fact("q", 100)) || !w.Contains(fact("r", 1)) {
		t.Fatal("clone missing its own inserts")
	}
	// Unwritten relations stay pointer-shared; written ones are copies.
	if base.RelOrNil("p") == w.RelOrNil("p") {
		t.Fatal("written relation p still shared")
	}
	if base.Len() != 64 {
		t.Fatalf("source Len = %d, want 64", base.Len())
	}
	if w.Len() != 64+1 {
		t.Fatalf("clone Len = %d, want 65", w.Len())
	}

	// The source goes on being written, and the clone does not see it.
	base.Insert(fact("q", 200))
	base.Delete(fact("q", 3))
	if w.Contains(fact("q", 200)) || !w.Contains(fact("q", 3)) || w.Len() != 65 {
		t.Fatal("a write to the source reached the clone")
	}

	// A no-op delete must not copy.
	w2 := base.Clone()
	if w2.Delete(fact("p", 999)) {
		t.Fatal("delete of absent fact returned true")
	}
	if base.RelOrNil("p") != w2.RelOrNil("p") {
		t.Fatal("no-op delete copied the relation")
	}
	// Nor a duplicate insert (a magic execution re-asserts the program's own
	// base facts on a clone of the extensional database).
	if w2.Insert(fact("q", 7)) {
		t.Fatal("insert of present fact returned true")
	}
	if base.RelOrNil("q") != w2.RelOrNil("q") {
		t.Fatal("duplicate insert copied the relation")
	}

	// Clear leaves a shared relation to the other side and starts afresh in
	// the same creation-order slot.
	w2.Clear("p")
	w2.Clear("absent")
	if w2.Card("p") != 0 || w2.Len() != 32 || base.Card("p") != 32 || fmt.Sprint(w2.Preds()) != "[p q]" {
		t.Fatalf("after Clear: clone p=%d len=%d preds=%v, source p=%d", w2.Card("p"), w2.Len(), w2.Preds(), base.Card("p"))
	}
	w2.Insert(fact("p", 1))
	if base.RelOrNil("p") == w2.RelOrNil("p") || base.Card("p") != 32 || w2.Len() != 33 {
		t.Fatal("insert after Clear reached the source's relation")
	}

	// A *Relation held across a Clone is frozen: writing it panics.
	held := base.Rel("q")
	base.Clone()
	defer func() {
		if recover() == nil {
			t.Fatal("a write to a frozen relation did not panic")
		}
	}()
	held.Insert(fact("q", 300))
}

func TestForkPredsAndString(t *testing.T) {
	base := NewDB()
	base.Insert(fact("b", 1))
	base.Insert(fact("a", 1))
	w := base.Clone()
	w.Insert(fact("c", 1))
	want := []string{"b", "a", "c"}
	got := w.Preds()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("clone Preds = %v, want %v", got, want)
	}
	if base.String() == w.String() {
		t.Fatal("clone String should differ after insert")
	}
}

type gauge struct{ slots, occupied, probes int }

func (m *gauge) peak(g gauge) {
	m.slots, m.occupied, m.probes = max(m.slots, g.slots), max(m.occupied, g.occupied), max(m.probes, g.probes)
}

// TestForkChurnKeepsTablesClean: balanced insert/delete pairs, each pair a
// transaction of its own (clone, write, publish), hold a relation at one size
// — so its intern tables never grow, and only deletion keeps their probe runs
// short.  Slots allocated, slots occupied (counted from the slots) and the
// mean probe length of a hit must be the same in the last thousand
// transactions as in the first.
func TestForkChurnKeepsTablesClean(t *testing.T) {
	const live, txs, window = 3 * unit / 2, 10_000, 1000
	db := NewDB()
	for i := 0; i < live; i++ {
		db.Insert(f("p", i))
	}
	measure := func(r *Relation) (g gauge) {
		r.shards.each(func(tb *factTable) {
			g.slots += len(tb.slots)
			mask := len(tb.slots) - 1
			for i, e := range tb.slots {
				if e != nil {
					g.occupied++
					g.probes += (i-int(hashFact(e)))&mask + 1
				}
			}
		})
		return g
	}
	var first, last gauge
	for i := 0; i < txs; i++ {
		w := db.Clone()
		if !w.Insert(f("p", live+i)) || !w.Delete(f("p", i)) {
			t.Fatalf("tx %d: pair did not apply", i)
		}
		db = w
		g := measure(db.RelOrNil("p"))
		if i < window {
			first.peak(g)
		}
		if i >= txs-window {
			last.peak(g)
		}
	}
	t.Logf("%d live facts; peak over the first %d transactions %+v, over the last %+v", live, window, first, last)
	if last.slots > first.slots || last.occupied > first.occupied+first.occupied/20 || last.probes > first.probes+first.probes/10 {
		t.Errorf("tables got dirtier under churn: first window %+v, last window %+v", first, last)
	}
	if db.Card("p") != live || last.occupied > live+live/4+db.RelOrNil("p").shards.len() {
		t.Errorf("%d facts occupy %d slots: deleted facts leave their slots occupied", db.Card("p"), last.occupied)
	}
}

// TestForkWriteIndependentOfSize: a write to a clone copies the units it
// lands in and the directory page above each, and of the directories only
// the tops — one pointer per directory page — grow with the relation.  So
// Clone + Insert + Delete on the clone allocate the same for a relation of
// n > 2·unit² facts, whose every directory is paged, and for one of 16n, give
// or take one page of units and one directory page: 2·unit 8-byte pointers.
func TestForkWriteIndependentOfSize(t *testing.T) {
	write := func(n int) uint64 {
		fs := make([]*term.Fact, n)
		for i := range fs {
			fs[i] = fact("p", i)
		}
		db := NewDB()
		db.LoadFacts(fs, LoadOpts{})
		least := uint64(math.MaxUint64)
		for k := 0; k < 3; k++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c := db.Clone()
			c.Insert(fact("p", -1))
			c.Delete(fs[n/2])
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least
	}
	n := 2*unit*unit + 1
	small, large := write(n), write(16*n)
	t.Logf("Clone + Insert + Delete: %d B at %d facts, %d B at %d", small, n, large, 16*n)
	if large > small+2*unit*8 {
		t.Errorf("the write allocates %d B at %d facts and %d B at %d: more than a page and a directory page apart", small, n, large, 16*n)
	}
}

// TestForkWriteIndependentOfBucket: an index bucket is paged like the
// directories, so a write to a clone copies the bucket's top and the one
// page it lands in, not the bucket.  Clone + Insert + Delete of one fact
// whose column-0 key holds 8·unit facts allocates, for the column-0 index,
// no more than a page of the bucket, the bucket's top (a pointer per page,
// copied and then grown by one page), the index shard table the key lives
// in, the entry and the fork's copy of the index header: measured as the
// same write with and without that index.
func TestForkWriteIndependentOfBucket(t *testing.T) {
	const n = 8 * unit
	key := term.Atom("k")
	write := func(indexed bool) (uint64, *Relation) {
		fs := make([]*term.Fact, n)
		for i := range fs {
			fs[i] = term.NewFact("p", key, term.Int(int64(i)))
		}
		db := NewDB()
		db.LoadFacts(fs, LoadOpts{})
		if indexed {
			lookupCol(db.Rel("p"), 0, key)
		}
		f := term.NewFact("p", key, term.Int(n))
		least := uint64(math.MaxUint64)
		for k := 0; k < 3; k++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			c := db.Clone()
			c.Insert(f)
			c.Delete(f)
			runtime.ReadMemStats(&m1)
			least = min(least, m1.TotalAlloc-m0.TotalAlloc)
		}
		return least, db.RelOrNil("p")
	}
	plain, _ := write(false)
	indexed, r := write(true)
	const ptr = 8
	page := int(unsafe.Sizeof(dirPage[*term.Fact]{})) + unit*ptr
	top := int(unsafe.Sizeof(dirTop[*term.Fact]{})) + 3*(n/unit)*ptr
	table := int(unsafe.Sizeof(idxShard{})) + len(r.findIndex(1).shards.at(0).slots)*ptr
	header := int(unsafe.Sizeof(idxEntry{})+unsafe.Sizeof(index{})) + 8*ptr
	// The allocator rounds an object up to its size class: by an eighth at most.
	bound := uint64(page+top+table+header) * 9 / 8
	t.Logf("Clone + Insert + Delete on a key of %d facts: %d B without the index, %d B with it; bound %d B", n, plain, indexed, bound)
	if indexed > plain+bound {
		t.Errorf("the index costs the write %d B, more than a page, a bucket top, a shard table and the headers (%d B)", indexed-plain, bound)
	}
}

// TestWriteNeverRebuildsTables: a write that fills an intern table splits
// that table alone, so no single insert rebuilds the tables it already has.
// On a fork of a relation of unit·2^k facts — the size at which a directory
// doubled by fact count would rebuild all 2^(k+1) of them — each of the
// next n/2 inserts, each on a fork of its own and one of them doubling the
// directory, allocates at most two tables (the fork's copy of the full one
// and the half that leaves it), a segment, and the intern directory and the
// segment list each copied at twice their length: the worst case is a
// directory copy, not every table.
func TestWriteNeverRebuildsTables(t *testing.T) {
	for _, k := range []int{3, 5} {
		n := unit << k
		db := NewDB()
		for i := range n {
			db.Insert(fact("p", i))
		}
		var worst uint64
		before, entries := tables(db.RelOrNil("p")), db.RelOrNil("p").shards.len()
		for i := range n / 2 {
			f := fact("p", n+i)
			least := uint64(math.MaxUint64)
			var c *DB
			for range 3 { // the least of three, against allocations elsewhere in the process
				c = db.Clone()
				r := c.Rel("p") // the fork, outside the measure
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				r.Insert(f)
				runtime.ReadMemStats(&m1)
				least = min(least, m1.TotalAlloc-m0.TotalAlloc)
			}
			worst = max(worst, least)
			db = c
		}
		r := db.RelOrNil("p")
		const ptr = 8
		table := int(unsafe.Sizeof(factTable{})) + unit*ptr
		seg := int(unsafe.Sizeof(segment{})) + unit*ptr
		dirs := 2 * (r.shards.len() + r.segs.len()) * ptr
		// The allocator rounds an object up to its size class: by an eighth at most.
		bound := uint64(2*table+seg+dirs) * 9 / 8
		t.Logf("%d facts, %d intern tables listed at %d entries, then %d at %d: the costliest of %d inserts on forks allocates %d B; bound %d B",
			n, before, entries, tables(r), r.shards.len(), n/2, worst, bound)
		if r.shards.len() == entries {
			t.Errorf("%d facts: %d inserts never doubled the directory", n, n/2)
		}
		if worst > bound {
			t.Errorf("%d facts: an insert allocates %d B, more than two tables, a segment and two directory copies (%d B)", n, worst, bound)
		}
	}
}

// tables counts the distinct intern tables of r.
func tables(r *Relation) int {
	seen := map[*factTable]bool{}
	r.shards.each(func(t *factTable) { seen[t] = true })
	return len(seen)
}
