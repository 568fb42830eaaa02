package workload

import (
	"testing"

	"ldl1/internal/term"
)

func TestParentChain(t *testing.T) {
	db := ParentChain(10)
	if db.Rel("parent").Len() != 10 {
		t.Fatalf("chain has %d edges", db.Rel("parent").Len())
	}
	if !db.Contains(term.NewFact("parent", term.Atom("n0"), term.Atom("n1"))) {
		t.Fatal("missing first edge")
	}
}

func TestParentTree(t *testing.T) {
	db := ParentTree(3)
	// 2^3 - 1 = 7 internal nodes, two edges each.
	if db.Rel("parent").Len() != 14 {
		t.Fatalf("tree has %d edges", db.Rel("parent").Len())
	}
}

func TestRandomDAGDeterministicAndAcyclic(t *testing.T) {
	a := RandomDAG(50, 2, 42)
	b := RandomDAG(50, 2, 42)
	if !a.Equal(b) {
		t.Fatal("same seed must give same DAG")
	}
	c := RandomDAG(50, 2, 43)
	if a.Equal(c) {
		t.Fatal("different seeds should differ")
	}
	// All edges point forward: i -> j with j > i.
	for _, f := range a.Rel("parent").All() {
		src := f.Args[0].(term.Atom)
		dst := f.Args[1].(term.Atom)
		if string(src) >= string(dst) && len(src) == len(dst) {
			t.Fatalf("backward edge %v", f)
		}
	}
}

func TestSupplierParts(t *testing.T) {
	db := SupplierParts(8, 4, 1)
	if db.Rel("sp").Len() == 0 || db.Rel("sp").Len() > 32 {
		t.Fatalf("sp = %d tuples", db.Rel("sp").Len())
	}
}

func TestBooksPriceRange(t *testing.T) {
	db := Books(20, 3)
	if db.Rel("book").Len() != 20 {
		t.Fatalf("books = %d", db.Rel("book").Len())
	}
	for _, f := range db.Rel("book").All() {
		p := int64(f.Args[1].(term.Int))
		if p < 5 || p > 60 {
			t.Fatalf("price out of range: %v", f)
		}
	}
}

func TestBOMShape(t *testing.T) {
	db := BOM(2, 2)
	// 3 internal nodes with 2 subparts each; 4 leaves with costs.
	if db.Rel("p").Len() != 6 {
		t.Fatalf("p = %d", db.Rel("p").Len())
	}
	if db.Rel("q").Len() != 4 {
		t.Fatalf("q = %d", db.Rel("q").Len())
	}
	// Root has id 1 and two subparts.
	if root, _ := db.Rel("p").LookupCols([]int{0}, []term.Term{term.Int(1)}); len(root) != 2 {
		t.Fatal("root should have two subparts")
	}
}

func TestFamilyForest(t *testing.T) {
	db := FamilyForest(3, 3)
	// Each family: 7 internal nodes * 2 edges + 2 sibling links.
	if db.Rel("p").Len() != 3*14 {
		t.Fatalf("p = %d", db.Rel("p").Len())
	}
	if db.Rel("siblings").Len() != 6 {
		t.Fatalf("siblings = %d", db.Rel("siblings").Len())
	}
}

func TestPersons(t *testing.T) {
	db := Persons(ParentChain(3), 3)
	if db.Rel("person").Len() != 4 {
		t.Fatalf("persons = %d", db.Rel("person").Len())
	}
}
