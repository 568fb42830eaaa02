package term_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ldl1/internal/term"
	"ldl1/internal/termgen"
)

// randSet returns a set of up to five shallow random terms.
func randSet(r *rand.Rand) *term.Set {
	elems := make([]term.Term, r.Intn(6))
	for i := range elems {
		elems[i] = termgen.Term(r, 1)
	}
	return term.NewSet(elems...)
}

func TestCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b, c := termgen.Term(r, 2), termgen.Term(r, 2), termgen.Term(r, 2)
		// Antisymmetry.
		if term.Compare(a, b) < 0 && term.Compare(b, a) <= 0 {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		// Reflexivity.
		if term.Compare(a, a) != 0 {
			t.Fatalf("Compare(a,a) != 0 for %v", a)
		}
		// Compare consistent with text equality.
		if (term.Compare(a, b) == 0) != (a.String() == b.String()) {
			t.Fatalf("Compare and text disagree for %v vs %v", a, b)
		}
		// Transitivity (on ordered triples).
		if term.Compare(a, b) <= 0 && term.Compare(b, c) <= 0 && term.Compare(a, c) > 0 {
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
	if err := quick.Check(func(a, b *term.Set) bool {
		return term.Equal(a.Union(b), b.Union(a))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Associativity.
	if err := quick.Check(func(a, b, c *term.Set) bool {
		return term.Equal(a.Union(b).Union(c), a.Union(b.Union(c)))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Idempotence and identity.
	if err := quick.Check(func(a *term.Set) bool {
		return term.Equal(a.Union(a), a) && term.Equal(a.Union(term.EmptySet), a)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Union is an upper bound; intersection a lower bound.
	if err := quick.Check(func(a, b *term.Set) bool {
		u, i := a.Union(b), a.Intersect(b)
		return a.SubsetOf(u) && b.SubsetOf(u) && i.SubsetOf(a) && i.SubsetOf(b)
	}, cfg); err != nil {
		t.Error(err)
	}
	// |A ∪ B| = |A| + |B| - |A ∩ B|.
	if err := quick.Check(func(a, b *term.Set) bool {
		return a.Union(b).Len() == a.Len()+b.Len()-a.Intersect(b).Len()
	}, cfg); err != nil {
		t.Error(err)
	}
	// A \ B disjoint from B, and (A\B) ∪ (A∩B) = A.
	if err := quick.Check(func(a, b *term.Set) bool {
		d := a.Difference(b)
		return d.Intersect(b).Len() == 0 && term.Equal(d.Union(a.Intersect(b)), a)
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
	if err := quick.Check(func(a, b, c *term.Set) bool {
		// Reflexive, antisymmetric, transitive.
		if !a.SubsetOf(a) {
			return false
		}
		if a.SubsetOf(b) && b.SubsetOf(a) && !term.Equal(a, b) {
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

func TestElemDominated(t *testing.T) {
	// (iii): {f({1})} ≤ {f({1,2}), 3}.
	e := term.NewSet(term.NewCompound("f", term.NewSet(term.Int(1))))
	ep := term.NewSet(term.NewCompound("f", term.NewSet(term.Int(1), term.Int(2))), term.Int(3))
	if !term.ElemDominated(e, ep) {
		t.Error("recursive set dominance failed")
	}
	if term.ElemDominated(ep, e) {
		t.Error("recursive set dominance should not be symmetric here")
	}
	// (ii): functor mismatch blocks dominance.
	if term.ElemDominated(term.NewCompound("f", term.Int(1)), term.NewCompound("g", term.Int(1))) {
		t.Error("different functors must not dominate")
	}
	// FactElemDominated generalizes Dominated.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		f := term.NewFact("p", termgen.Term(r, 2), randSet(r))
		g := term.NewFact("p", f.Args[0], randSet(r).Union(f.Args[1].(*term.Set)))
		if term.Dominated(f, g) && !term.FactElemDominated(f, g) {
			t.Fatalf("elaborate dominance should subsume basic: %v vs %v", f, g)
		}
	}
}
