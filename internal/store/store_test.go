package store

import (
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
