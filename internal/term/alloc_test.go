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
	head := []term.Term{a, x}
	h := term.HashFactArgs("p", head)
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"union of disjoint 16-element sets", 2, func() { a.Union(b) }},
		{"SubsetOf", 0, func() { a.SubsetOf(b) }},
		{"Disjoint", 0, func() { a.Disjoint(b) }},
		{"Contains", 0, func() { a.Contains(x) }},
		{"NewSet of 16", 2, func() { term.NewSet(odds...) }},
		{"ApplyPartial on an unbound variable", 0, func() { unify.ApplyPartial(v, bs) }},
		{"NewFactOf with two arguments", 1, func() { term.NewFactOf("p", head, h) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
