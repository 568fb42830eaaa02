package term

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randTerm generates a random ground term of bounded depth, exercising all
// ground kinds including nested sets.
func randTerm(r *rand.Rand, depth int) Term {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return Int(r.Intn(20) - 10)
		case 1:
			return Atom(string(rune('a' + r.Intn(6))))
		default:
			return Str(string(rune('p' + r.Intn(4))))
		}
	}
	switch r.Intn(5) {
	case 0:
		return Int(r.Intn(20) - 10)
	case 1:
		return Atom(string(rune('a' + r.Intn(6))))
	case 2:
		return Str(string(rune('p' + r.Intn(4))))
	case 3:
		n := r.Intn(3)
		args := make([]Term, n+1)
		for i := range args {
			args[i] = randTerm(r, depth-1)
		}
		return NewCompound(string(rune('f'+r.Intn(3))), args...)
	default:
		n := r.Intn(4)
		elems := make([]Term, n)
		for i := range elems {
			elems[i] = randTerm(r, depth-1)
		}
		return NewSet(elems...)
	}
}

func randSet(r *rand.Rand) *Set {
	n := r.Intn(6)
	elems := make([]Term, n)
	for i := range elems {
		elems[i] = randTerm(r, 1)
	}
	return NewSet(elems...)
}

func TestSetCanonical(t *testing.T) {
	a := NewSet(Int(2), Int(1), Int(2), Int(3), Int(1))
	b := NewSet(Int(3), Int(2), Int(1))
	if !Equal(a, b) {
		t.Fatalf("canonicalization failed: %v vs %v", a, b)
	}
	if a.Len() != 3 {
		t.Fatalf("duplicates not removed: %v", a)
	}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for equal sets")
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
	if s.Disjoint(u) {
		t.Error("sets sharing 2 reported disjoint")
	}
	if !NewSet(Int(1)).Disjoint(NewSet(Int(9))) {
		t.Error("disjoint sets reported overlapping")
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

func TestCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b, c := randTerm(r, 2), randTerm(r, 2), randTerm(r, 2)
		// Antisymmetry.
		if Compare(a, b) < 0 && Compare(b, a) <= 0 {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		// Reflexivity.
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(a,a) != 0 for %v", a)
		}
		// Compare consistent with Key equality.
		if (Compare(a, b) == 0) != (a.Key() == b.Key()) {
			t.Fatalf("Compare/Key disagree for %v vs %v", a, b)
		}
		// Transitivity (on ordered triples).
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

func TestQuickUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := &quick.Config{MaxCount: 300, Rand: r, Values: func(vals []reflect.Value, r *rand.Rand) {
		for i := range vals {
			vals[i] = reflect.ValueOf(randSet(r))
		}
	}}
	// Commutativity.
	if err := quick.Check(func(a, b *Set) bool {
		return Equal(a.Union(b), b.Union(a))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Associativity.
	if err := quick.Check(func(a, b, c *Set) bool {
		return Equal(a.Union(b).Union(c), a.Union(b.Union(c)))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Idempotence and identity.
	if err := quick.Check(func(a *Set) bool {
		return Equal(a.Union(a), a) && Equal(a.Union(EmptySet), a)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Union is an upper bound; intersection a lower bound.
	if err := quick.Check(func(a, b *Set) bool {
		u, i := a.Union(b), a.Intersect(b)
		return a.SubsetOf(u) && b.SubsetOf(u) && i.SubsetOf(a) && i.SubsetOf(b)
	}, cfg); err != nil {
		t.Error(err)
	}
	// |A ∪ B| = |A| + |B| - |A ∩ B|.
	if err := quick.Check(func(a, b *Set) bool {
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}, cfg); err != nil {
		t.Error(err)
	}
	// A \ B disjoint from B, and (A\B) ∪ (A∩B) = A.
	if err := quick.Check(func(a, b *Set) bool {
		d := a.Difference(b)
		return d.Disjoint(b) && Equal(d.Union(a.Intersect(b)), a)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cfg := &quick.Config{MaxCount: 300, Rand: r, Values: func(vals []reflect.Value, r *rand.Rand) {
		for i := range vals {
			vals[i] = reflect.ValueOf(randSet(r))
		}
	}}
	if err := quick.Check(func(a, b, c *Set) bool {
		// Reflexive, antisymmetric, transitive.
		if !a.SubsetOf(a) {
			return false
		}
		if a.SubsetOf(b) && b.SubsetOf(a) && !Equal(a, b) {
			return false
		}
		if a.SubsetOf(b) && b.SubsetOf(c) && !a.SubsetOf(c) {
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestFactKeyAndEqual(t *testing.T) {
	f := NewFact("p", Int(1), NewSet(Int(2), Int(1)))
	g := NewFact("p", Int(1), NewSet(Int(1), Int(2)))
	if !f.Equal(g) {
		t.Fatalf("facts with equal canonical sets should be equal: %v vs %v", f, g)
	}
	h := NewFact("q", Int(1), NewSet(Int(1), Int(2)))
	if f.Equal(h) {
		t.Fatal("facts with different predicates compared equal")
	}
	if f.String() != "p(1, {1, 2})" {
		t.Fatalf("fact String = %q", f.String())
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

func TestElemDominated(t *testing.T) {
	// (iii): {f({1})} ≤ {f({1,2}), 3}.
	e := NewSet(NewCompound("f", NewSet(Int(1))))
	ep := NewSet(NewCompound("f", NewSet(Int(1), Int(2))), Int(3))
	if !ElemDominated(e, ep) {
		t.Error("recursive set dominance failed")
	}
	if ElemDominated(ep, e) {
		t.Error("recursive set dominance should not be symmetric here")
	}
	// (ii): functor mismatch blocks dominance.
	if ElemDominated(NewCompound("f", Int(1)), NewCompound("g", Int(1))) {
		t.Error("different functors must not dominate")
	}
	// FactElemDominated generalizes Dominated.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		f := NewFact("p", randTerm(r, 2), randSet(r))
		g := NewFact("p", f.Args[0], randSet(r).Union(f.Args[1].(*Set)))
		if Dominated(f, g) && !FactElemDominated(f, g) {
			t.Fatalf("elaborate dominance should subsume basic: %v vs %v", f, g)
		}
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
