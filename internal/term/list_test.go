package term

import "testing"

// isList reports whether t is a proper list (ends in []) and returns its
// elements.
func isList(t Term) ([]Term, bool) {
	var elems []Term
	for {
		if Equal(t, EmptyList) {
			return elems, true
		}
		c, ok := t.(*Compound)
		if !ok || c.Functor != ConsFunctor || len(c.Args) != 2 {
			return nil, false
		}
		elems = append(elems, c.Args[0])
		t = c.Args[1]
	}
}

func TestNewListAndCons(t *testing.T) {
	l := NewList(Int(1), Int(2))
	want := Cons(Int(1), Cons(Int(2), EmptyList))
	if !Equal(l, want) {
		t.Fatalf("NewList = %v", l)
	}
	if !Equal(NewList(), EmptyList) {
		t.Fatal("empty NewList should be []")
	}
	if l.String() != "[1, 2]" {
		t.Errorf("String = %q", l.String())
	}
}

func TestIsList(t *testing.T) {
	elems, ok := isList(NewList(Atom("a"), Atom("b")))
	if !ok || len(elems) != 2 || !Equal(elems[0], Atom("a")) {
		t.Fatalf("IsList = %v, %v", elems, ok)
	}
	// Improper list (non-[] tail).
	if _, ok := isList(Cons(Int(1), Var("T"))); ok {
		t.Error("improper list reported proper")
	}
	// Non-list terms.
	if _, ok := isList(Int(3)); ok {
		t.Error("3 is not a list")
	}
	if elems, ok := isList(EmptyList); !ok || len(elems) != 0 {
		t.Error("[] is the empty list")
	}
}

func TestListStringImproper(t *testing.T) {
	l := Cons(Int(1), Cons(Int(2), Var("T")))
	if got := l.String(); got != "[1, 2 | T]" {
		t.Errorf("improper list String = %q", got)
	}
}

func TestListsAreOrdinaryTerms(t *testing.T) {
	// Lists live in U as cons structures: they can be set elements and
	// compare structurally.
	s := NewSet(NewList(Int(1)), NewList(Int(2)), NewList(Int(1)))
	if s.Len() != 2 {
		t.Fatalf("set of lists = %v", s)
	}
	if Compare(NewList(Int(1)), NewList(Int(1))) != 0 {
		t.Error("equal lists compare nonzero")
	}
	if IsGround(Cons(Var("H"), EmptyList)) {
		t.Error("list with variable reported ground")
	}
}

func TestGroupTermBasics(t *testing.T) {
	g := NewGroup(Var("X"))
	if g.Kind() != KindGroup {
		t.Error("Kind wrong")
	}
	if g.String() != "<X>" {
		t.Errorf("String = %q", g.String())
	}
	if Compare(NewGroup(Var("X")), NewGroup(Var("X"))) != 0 {
		t.Error("equal groups compare nonzero")
	}
	if !ContainsGroup(NewCompound("f", NewCompound("g", g))) {
		t.Error("nested group not detected")
	}
	if ContainsGroup(NewCompound("f", Var("X"))) {
		t.Error("false positive group detection")
	}
	vs := VarsOf(NewCompound("f", g, Var("Y")))
	if len(vs) != 2 {
		t.Errorf("vars through group = %v", vs)
	}
}
