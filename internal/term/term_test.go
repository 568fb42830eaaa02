package term

import "testing"

func TestSetCanonical(t *testing.T) {
	a := NewSet(Int(2), Int(1), Int(2), Int(3), Int(1))
	b := NewSet(Int(3), Int(2), Int(1))
	if !Equal(a, b) {
		t.Fatalf("canonicalization failed: %v vs %v", a, b)
	}
	if a.Len() != 3 {
		t.Fatalf("duplicates not removed: %v", a)
	}
	if a.String() != b.String() {
		t.Fatalf("texts differ for equal sets: %v vs %v", a, b)
	}
}

func TestEmptySet(t *testing.T) {
	if NewSet() != EmptySet {
		t.Fatal("NewSet() should return the EmptySet singleton")
	}
	if EmptySet.Len() != 0 || EmptySet.String() != "{}" {
		t.Fatalf("empty set misbehaves: %v", EmptySet)
	}
	if !EmptySet.SubsetOf(NewSet(Int(1))) {
		t.Fatal("{} should be a subset of every set")
	}
}

func TestSetOps(t *testing.T) {
	s := NewSet(Int(1), Int(2))
	u := NewSet(Int(2), Int(3))
	if got := s.Union(u); !Equal(got, NewSet(Int(1), Int(2), Int(3))) {
		t.Errorf("union = %v", got)
	}
	if got := s.Intersect(u); !Equal(got, NewSet(Int(2))) {
		t.Errorf("intersect = %v", got)
	}
	if got := s.Difference(u); !Equal(got, NewSet(Int(1))) {
		t.Errorf("difference = %v", got)
	}
	var none *SetTable
	if got := none.DisjointUnion(s, u); got != nil {
		t.Errorf("disjoint union of sets sharing 2 = %v", got)
	}
	if got := none.DisjointUnion(NewSet(Int(1)), NewSet(Int(9))); !Equal(got, NewSet(Int(1), Int(9))) {
		t.Errorf("disjoint union of {1} and {9} = %v", got)
	}
}

func TestSconsAdd(t *testing.T) {
	s := EmptySet.Add(Int(1)).Add(Int(2)).Add(Int(1))
	if !Equal(s, NewSet(Int(1), Int(2))) {
		t.Fatalf("Add/scons chain = %v", s)
	}
	// Adding an existing element returns the same canonical set.
	if s2 := s.Add(Int(2)); !Equal(s, s2) {
		t.Fatalf("Add existing changed set: %v", s2)
	}
}

func TestNestedSets(t *testing.T) {
	inner := NewSet(Int(1))
	outer := NewSet(inner)
	if !outer.Contains(NewSet(Int(1))) {
		t.Fatal("nested set membership by value failed")
	}
	if outer.Contains(Int(1)) {
		t.Fatal("{{1}} should not contain 1")
	}
}

func TestFactTextAndEqual(t *testing.T) {
	f := NewFact("p", Int(1), NewSet(Int(2), Int(1)))
	g := NewFact("p", Int(1), NewSet(Int(1), Int(2)))
	if !f.Equal(g) {
		t.Fatalf("facts with equal canonical sets should be equal: %v vs %v", f, g)
	}
	h := NewFact("q", Int(1), NewSet(Int(1), Int(2)))
	if f.Equal(h) {
		t.Fatal("facts with different predicates compared equal")
	}
	if f.String() != "p(1, {1, 2})" || g.String() != f.String() {
		t.Fatalf("fact String = %q, %q", f, g)
	}
	if h.String() == f.String() {
		t.Fatal("facts with different predicates print alike")
	}
	// Names the lexer would not read back as the same identifier print
	// quoted.
	if got := NewFact("Q", Atom("not"), NewCompound("a b")).String(); got != `'Q'('not', 'a b'())` {
		t.Fatalf("quoted fact String = %q", got)
	}
}

// TestNewFactOf checks that a fact built over a scratch head is NewFact's
// twin at every arity — inline argument array or not — and owns its
// arguments.
func TestNewFactOf(t *testing.T) {
	for n := 0; n <= 6; n++ {
		scratch := make([]Term, n)
		for i := range scratch {
			scratch[i] = NewSet(Int(i), Atom("a"))
		}
		f := NewFactOf("p", scratch, HashFactArgs("p", scratch))
		g := NewFact("p", append([]Term(nil), scratch...)...)
		if !f.Equal(g) || f.Hash() != g.Hash() || len(f.Args) != n || cap(f.Args) != n {
			t.Fatalf("arity %d: NewFactOf = %v (hash %x, cap %d), NewFact = %v (hash %x)", n, f, f.Hash(), cap(f.Args), g, g.Hash())
		}
		for i := range scratch {
			scratch[i] = Int(-1)
		}
		if !f.Equal(g) {
			t.Fatalf("arity %d: overwriting the scratch head changed the fact to %v", n, f)
		}
	}
}

func TestDominated(t *testing.T) {
	// From §2.4: p({1}) ≤ p({1,2}); q(1) only dominated by itself.
	p1 := NewFact("p", NewSet(Int(1)))
	p12 := NewFact("p", NewSet(Int(1), Int(2)))
	if !Dominated(p1, p12) {
		t.Error("p({1}) should be dominated by p({1,2})")
	}
	if Dominated(p12, p1) {
		t.Error("p({1,2}) must not be dominated by p({1})")
	}
	q1 := NewFact("q", Int(1))
	q2 := NewFact("q", Int(2))
	if Dominated(q1, q2) {
		t.Error("non-set arguments require equality")
	}
	if !Dominated(q1, q1) {
		t.Error("dominance must be reflexive")
	}
	// Mixed arguments: set positions by subset, scalar positions by equality.
	a := NewFact("r", Int(1), NewSet(Int(1)))
	b := NewFact("r", Int(1), NewSet(Int(1), Int(5)))
	c := NewFact("r", Int(2), NewSet(Int(1), Int(5)))
	if !Dominated(a, b) || Dominated(a, c) {
		t.Error("mixed-argument dominance wrong")
	}
}

func TestVars(t *testing.T) {
	tm := NewCompound("f", Var("X"), NewCompound("g", Var("Y"), Var("X")), Int(3))
	vs := VarsOf(tm)
	if len(vs) != 2 || vs[0] != "X" || vs[1] != "Y" {
		t.Fatalf("VarsOf = %v", vs)
	}
	if IsGround(tm) {
		t.Error("term with vars reported ground")
	}
	if !IsGround(NewSet(Int(1), NewCompound("f", Atom("a")))) {
		t.Error("ground term reported non-ground")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindInt, KindAtom, KindStr, KindVar, KindCompound, KindSet}
	want := []string{"int", "atom", "string", "var", "compound", "set"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("Kind %d String = %q, want %q", i, k.String(), want[i])
		}
	}
}
