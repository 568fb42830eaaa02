package term_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ldl1/internal/term"
	"ldl1/internal/termgen"
)

// has is the reference membership test: a linear scan by Equal, independent
// of the binary search and merges under test.
func has(s *term.Set, x term.Term) bool {
	return slices.ContainsFunc(s.Elems(), func(e term.Term) bool { return term.Equal(e, x) })
}

func filter(s *term.Set, keep func(term.Term) bool) []term.Term {
	var out []term.Term
	for _, e := range s.Elems() {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// checkKernel compares a kernel result with its NewSet twin: equal, strictly
// increasing, the same hash, and — when the kernel built a new set rather
// than returning an operand — exactly sized.
func checkKernel(t *testing.T, op string, got *term.Set, twin []term.Term, operands ...*term.Set) {
	t.Helper()
	want := term.NewSet(twin...)
	if !term.Equal(got, want) {
		t.Fatalf("%s = %v, want %v", op, got, want)
	}
	for i := 1; i < got.Len(); i++ {
		if term.Compare(got.Elems()[i-1], got.Elems()[i]) >= 0 {
			t.Fatalf("%s = %v: elements %d and %d out of order", op, got, i-1, i)
		}
	}
	if got.Hash() != want.Hash() {
		t.Fatalf("%s = %v: hash %x, term.NewSet twin %x", op, got, got.Hash(), want.Hash())
	}
	if slices.Contains(operands, got) || got == term.EmptySet {
		return
	}
	if cap(got.Elems()) != got.Len() {
		t.Fatalf("%s = %v: cap %d for %d elements", op, got, cap(got.Elems()), got.Len())
	}
}

// TestSetKernelsAgreeWithNewSet checks every set operation on random nested
// sets — ints, atoms, strings, compounds and sets drawn from one pool, so
// operands overlap — against NewSet over the concatenated or filtered
// elements.
func TestSetKernelsAgreeWithNewSet(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pool := make([]term.Term, 48)
	for i := range pool {
		pool[i] = termgen.Term(r, 3)
	}
	draw := func() *term.Set {
		elems := make([]term.Term, r.Intn(14))
		for i := range elems {
			elems[i] = pool[r.Intn(len(pool))]
		}
		return term.NewSet(elems...)
	}
	var tab term.SetTable
	for i := 0; i < 3000; i++ {
		a, b, x := draw(), draw(), pool[r.Intn(len(pool))]
		inB := func(e term.Term) bool { return has(b, e) }
		checkKernel(t, "union", a.Union(b), append(slices.Clone(a.Elems()), b.Elems()...), a, b)
		checkKernel(t, "intersect", a.Intersect(b), filter(a, inB), a, b)
		checkKernel(t, "difference", a.Difference(b), filter(a, func(e term.Term) bool { return !inB(e) }), a, b)
		checkKernel(t, "add", a.Add(x), append(slices.Clone(a.Elems()), x), a)
		if got, want := a.Contains(x), has(a, x); got != want {
			t.Fatalf("%v contains %v = %v, want %v", a, x, got, want)
		}
		if got, want := a.SubsetOf(b), len(filter(a, inB)) == a.Len(); got != want {
			t.Fatalf("%v ⊆ %v = %v, want %v", a, b, got, want)
		}
		u, disjoint := tab.DisjointUnion(a, b), len(filter(a, inB)) == 0
		if (u != nil) != disjoint {
			t.Fatalf("disjoint union of %v and %v = %v, want one iff they are disjoint (%v)", a, b, u, disjoint)
		}
		if u != nil {
			checkKernel(t, "disjoint union", u, append(slices.Clone(a.Elems()), b.Elems()...), a, b)
			if again := tab.Union(b, a); again != u {
				t.Fatalf("union of %v and %v built twice under one table", b, a)
			}
		}
	}
}

// TestTextConcurrent renders the text of shared terms from several
// goroutines: text is rendered on demand, so no term is written after its
// constructor returns (go test -race reports a lazy memo).
func TestTextConcurrent(t *testing.T) {
	build := func() []fmt.Stringer {
		c := term.NewCompound("f", term.Atom("a"), term.Int(1))
		s := term.NewSet(c, term.Str("x"), term.NewSet(term.Int(2)))
		return []fmt.Stringer{term.NewFact("p", s, c), s, c}
	}
	// The expected renderings come from a twin, so the shared terms are
	// first rendered inside the goroutines.
	terms, want := build(), []string{}
	for _, tm := range build() {
		want = append(want, tm.String())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(terms))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tm := range terms {
				if got := tm.String(); got != want[i] {
					errs <- got
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		t.Errorf("concurrent rendering gave %q", got)
	}
}
