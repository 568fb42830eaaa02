package store

import (
	"fmt"
	"testing"

	"ldl1/internal/term"
)

func f(pred string, args ...int) *term.Fact {
	ts := make([]term.Term, len(args))
	for i, a := range args {
		ts[i] = term.Int(int64(a))
	}
	return term.NewFact(pred, ts...)
}

// lookupCol is LookupCols on the one column col.
func lookupCol(r *Relation, col int, v term.Term) []*term.Fact {
	facts, _ := r.LookupCols([]int{col}, []term.Term{v})
	return facts
}

// bucket flattens the bucket of vals in ix.
func bucket(ix *index, vals []term.Term) []*term.Fact {
	var out []*term.Fact
	b := ix.probe(vals)
	b.each(func(f *term.Fact) { out = append(out, f) })
	return out
}

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation("p", true)
	if !r.Insert(f("p", 1, 2)) {
		t.Fatal("first insert should be new")
	}
	if r.Insert(f("p", 1, 2)) {
		t.Fatal("duplicate insert should report false")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(f("p", 1, 2)) || r.Contains(f("p", 2, 1)) {
		t.Fatal("Contains wrong")
	}
}

func TestRelationSetArgsDedup(t *testing.T) {
	r := NewRelation("p", true)
	a := term.NewFact("p", term.NewSet(term.Int(1), term.Int(2)))
	b := term.NewFact("p", term.NewSet(term.Int(2), term.Int(1), term.Int(2)))
	r.Insert(a)
	if r.Insert(b) {
		t.Fatal("canonically equal set facts must deduplicate")
	}
}

func TestLookupIndexed(t *testing.T) {
	for _, useIdx := range []bool{true, false} {
		r := NewRelation("e", useIdx)
		for i := 0; i < 100; i++ {
			r.Insert(f("e", i%10, i))
		}
		got := lookupCol(r, 0, term.Int(3))
		if len(got) != 10 {
			t.Fatalf("useIdx=%v: Lookup(0,3) = %d facts", useIdx, len(got))
		}
		for _, fact := range got {
			if !term.Equal(fact.Args[0], term.Int(3)) {
				t.Fatalf("wrong fact %v", fact)
			}
		}
		// Index maintained across later inserts.
		r.Insert(f("e", 3, 999))
		if len(lookupCol(r, 0, term.Int(3))) != 11 {
			t.Fatalf("useIdx=%v: index not maintained", useIdx)
		}
		// Missing key.
		if len(lookupCol(r, 1, term.Int(12345))) != 0 {
			t.Fatal("lookup of absent key should be empty")
		}
	}
}

func TestInsertionOrderPreserved(t *testing.T) {
	r := NewRelation("p", true)
	for i := 5; i >= 1; i-- {
		r.Insert(f("p", i))
	}
	all := r.All()
	for i, fact := range all {
		if !term.Equal(fact.Args[0], term.Int(int64(5-i))) {
			t.Fatalf("order violated at %d: %v", i, fact)
		}
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB()
	db.Insert(f("p", 1))
	db.Insert(f("q", 2))
	db.Insert(f("p", 3))
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	if db.RelOrNil("p") == nil || db.RelOrNil("r") != nil {
		t.Fatal("RelOrNil wrong")
	}
	if got := db.Preds(); len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Fatalf("Preds = %v", got)
	}
	if len(db.Facts()) != 3 {
		t.Fatal("Facts incomplete")
	}
	if !db.Contains(f("q", 2)) || db.Contains(f("q", 3)) {
		t.Fatal("Contains wrong")
	}
}

func TestDBCloneIndependent(t *testing.T) {
	db := NewDB()
	db.Insert(f("p", 1))
	cl := db.Clone()
	cl.Insert(f("p", 2))
	db.Insert(f("p", 3))
	if db.Contains(f("p", 2)) || cl.Contains(f("p", 3)) {
		t.Fatal("a write to one side of a clone leaked into the other")
	}
	if !cl.Contains(f("p", 1)) {
		t.Fatal("clone lost original facts")
	}
	if !db.Equal(db.Clone()) {
		t.Fatal("clone should equal original")
	}
}

func TestDBEqual(t *testing.T) {
	a, b := NewDB(), NewDB()
	a.Insert(f("p", 1))
	a.Insert(f("q", 2))
	b.Insert(f("q", 2))
	if a.Equal(b) {
		t.Fatal("different databases compared equal")
	}
	if n := b.LoadFacts(a.Facts(), LoadOpts{}); n != 1 {
		t.Fatalf("LoadFacts added %d", n)
	}
	if !a.Equal(b) {
		t.Fatal("databases should now be equal")
	}
	// Equal must be insensitive to insertion order.
	c := NewDB()
	c.Insert(f("q", 2))
	c.Insert(f("p", 1))
	if !a.Equal(c) {
		t.Fatal("Equal should ignore order")
	}
}

func TestDBString(t *testing.T) {
	db := NewDB()
	db.Insert(f("b", 2))
	db.Insert(f("a", 1))
	want := "a(1).\nb(2)."
	if got := db.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestLargeRelationLookupScales(t *testing.T) {
	r := NewRelation("big", true)
	const n = 20000
	for i := 0; i < n; i++ {
		r.Insert(f("big", i, i*2))
	}
	// With the index this is a hash probe; just verify correctness here.
	for i := 0; i < 100; i++ {
		k := i * (n / 100)
		got := lookupCol(r, 0, term.Int(int64(k)))
		if len(got) != 1 || !term.Equal(got[0].Args[1], term.Int(int64(k*2))) {
			t.Fatalf("lookup %d = %v", k, got)
		}
	}
}

// TestAdoptSharesByCloneRule: a database adopting a relation of another
// holds the same canonical facts and the indexes the relation had built,
// builds later indexes for itself, indexes only as its own UseIndexes says,
// and neither side's later writes reach the other; a relation it already
// holds facts of is copied into, and the source is left writable.
func TestAdoptSharesByCloneRule(t *testing.T) {
	src := NewDB()
	for i := 0; i < 4*IndexThreshold; i++ {
		src.Insert(f("p", i%4, i))
	}
	held := src.Rel("p")
	lookupCol(held, 0, term.Int(1)) // an index the adopting side shares

	dst := NewDB()
	dst.Adopt(held)
	r := dst.RelOrNil("p")
	if r == held || r.Len() != held.Len() || fmt.Sprint(dst.Preds()) != "[p]" {
		t.Fatalf("adopted %v holding %d facts, source %d", dst.Preds(), r.Len(), held.Len())
	}
	for _, g := range held.All() {
		if h, _ := r.Get(f("p", int(g.Args[0].(term.Int)), int(g.Args[1].(term.Int)))); h != g {
			t.Fatalf("the adopted relation does not hold the source's own %s", g)
		}
	}
	if n, ok := r.DistinctCols([]int{0}); !ok || n != 4 {
		t.Errorf("adopted relation: DistinctCols(0) = %d, %v; want the source's index, 4 keys", n, ok)
	}
	lookupCol(r, 1, term.Int(3))
	if _, ok := held.DistinctCols([]int{1}); ok {
		t.Error("an index built on the adopted relation reached the source")
	}

	src.Insert(f("p", 9, 100))
	dst.Delete(f("p", 0, 0))
	dst.Insert(f("p", 9, 200))
	if dst.Contains(f("p", 9, 100)) || !src.Contains(f("p", 0, 0)) || src.Contains(f("p", 9, 200)) {
		t.Fatal("a write to one side of an adoption reached the other")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a write to a relation held across Adopt did not panic")
			}
		}()
		held.Insert(f("p", 9, 300))
	}()

	off := NewDB()
	off.UseIndexes = false
	off.Adopt(src.RelOrNil("p"))
	ro := off.RelOrNil("p")
	if _, ok := ro.DistinctCols([]int{0}); ok || ro.Indexed([]int{0}) {
		t.Error("a database without indexes kept the adopted relation's index")
	}
	if got, indexed := ro.LookupCols([]int{0}, []term.Term{term.Int(1)}); indexed || len(got) != 16 {
		t.Errorf("LookupCols on an unindexed adoption: %d facts, indexed %v; want 16 scanned", len(got), indexed)
	}

	both := NewDB()
	both.Insert(f("q", 1))
	q := NewDB()
	q.Insert(f("q", 1))
	q.Insert(f("q", 2))
	qr := q.Rel("q")
	both.Adopt(qr)
	if both.RelOrNil("q") == qr || both.Card("q") != 2 {
		t.Fatalf("adopting into a held relation: %d facts, shared %v", both.Card("q"), both.RelOrNil("q") == qr)
	}
	qr.Insert(f("q", 3)) // copied, not frozen
	if both.Contains(f("q", 3)) {
		t.Fatal("a write to a copied relation reached the database that copied it")
	}
}
