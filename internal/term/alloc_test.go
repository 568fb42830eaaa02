package term_test

import (
	"testing"
	"unsafe"

	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// TestSetKernelAllocs pins what the universe's hot kernels allocate and how
// large a stored fact and set are: a regression here shows up as bytes in
// every model the evaluator builds.
func TestSetKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	if got := unsafe.Sizeof(term.Fact{}); got != 48 {
		t.Errorf("sizeof Fact = %d, want 48", got)
	}
	if got := unsafe.Sizeof(term.Set{}); got != 32 {
		t.Errorf("sizeof Set = %d, want 32", got)
	}
	if got := unsafe.Sizeof(term.Compound{}); got != 56 {
		t.Errorf("sizeof Compound = %d, want 56", got)
	}

	evens, odds := make([]term.Term, 16), make([]term.Term, 16)
	for i := range evens {
		evens[i], odds[i] = term.Int(2*i), term.Int(2*i+1)
	}
	a, b := term.NewSet(evens...), term.NewSet(odds...)
	x := term.Term(term.Int(14))
	v, bs := term.Term(term.Var("X")), unify.NewBindings()
	bx := unify.NewBindings()
	bx.Bind("X", term.Int(1))
	sum, fx := term.Term(term.NewCompound("+", v, term.Int(1))), term.Term(term.NewCompound("f", v))
	head := []term.Term{a, x}
	h := term.HashFactArgs("p", head)
	var none, tab *term.SetTable = nil, &term.SetTable{}
	tab.Union(a, b)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"union of disjoint 16-element sets", 2, func() { a.Union(b) }},
		{"SubsetOf", 0, func() { a.SubsetOf(b) }},
		{"disjoint union of sets sharing an element", 0, func() { none.DisjointUnion(a, a) }},
		{"union a table holds", 0, func() { tab.Union(a, b) }},
		{"Contains", 0, func() { a.Contains(x) }},
		{"NewSet of 16", 2, func() { term.NewSet(odds...) }},
		{"ApplyPartial on an unbound variable", 0, func() { unify.ApplyPartial(v, bs) }},
		{"Apply of X + 1", 0, func() { unify.Apply(sum, bx) }},
		{"ApplyPartial of X + 1", 0, func() { unify.ApplyPartial(sum, bx) }},
		{"Apply of f(X)", 2, func() { unify.Apply(fx, bx) }},
		{"NewFactOf with two arguments", 1, func() { term.NewFactOf("p", head, h) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
