package store

import (
	"fmt"
	"testing"

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
		"batch": func(r *Relation, fs ...*term.Fact) int { return r.InsertBatch(fs, LoadOpts{}) },
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
// golden tests don't flake once tombstones exist.
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
// table size so tombstone reuse and the compacting grow path both run.
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
	if got := r.Lookup(0, term.Int(3)); len(got) != 8 {
		t.Fatalf("pre-delete Lookup col0=3: %d facts, want 8", len(got))
	}
	if got, indexed := r.LookupCols([]int{0, 1}, []term.Term{term.Int(3), term.Int(11)}); !indexed || len(got) != 1 {
		t.Fatalf("pre-delete composite probe: %d facts (indexed=%v), want 1", len(got), indexed)
	}
	if !r.Delete(fact("e", 3, 11)) {
		t.Fatal("delete failed")
	}
	if got := r.Lookup(0, term.Int(3)); len(got) != 7 {
		t.Fatalf("post-delete Lookup col0=3: %d facts, want 7", len(got))
	}
	if got, _ := r.LookupCols([]int{0, 1}, []term.Term{term.Int(3), term.Int(11)}); len(got) != 0 {
		t.Fatalf("post-delete composite probe: %d facts, want 0", len(got))
	}
	// Insert after delete is visible through both indexes again.
	r.Insert(fact("e", 3, 11))
	if got := r.Lookup(0, term.Int(3)); len(got) != 8 {
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
// — so its intern tables never grow, and growth is the only other moment
// tombstones are swept.  Slots allocated, slots occupied (live + tombstone)
// and the mean probe length of a hit must be the same in the last thousand
// transactions as in the first.
func TestForkChurnKeepsTablesClean(t *testing.T) {
	const live, txs, window = 3 * unit / 2, 10_000, 1000
	db := NewDB()
	for i := 0; i < live; i++ {
		db.Insert(f("p", i))
	}
	measure := func(r *Relation) (g gauge) {
		for _, tb := range r.shards {
			g.slots += len(tb.entries)
			g.occupied += tb.n + tb.dead
			mask := len(tb.entries) - 1
			for i, e := range tb.entries {
				if e != nil && e != tombstone {
					g.probes += (i-int(hashFact(e)))&mask + 1
				}
			}
		}
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
	if db.Card("p") != live || last.occupied > live+live/4+db.RelOrNil("p").ShardCount() {
		t.Errorf("%d facts occupy %d slots: tombstones are not swept when a shard is copied", db.Card("p"), last.occupied)
	}
}
