package term

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// has is the reference membership test: a linear scan by Equal, independent
// of the binary search and merges under test.
func has(s *Set, x Term) bool {
	return slices.ContainsFunc(s.Elems(), func(e Term) bool { return Equal(e, x) })
}

func filter(s *Set, keep func(Term) bool) []Term {
	var out []Term
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
func checkKernel(t *testing.T, op string, got *Set, twin []Term, operands ...*Set) {
	t.Helper()
	want := NewSet(twin...)
	if !Equal(got, want) {
		t.Fatalf("%s = %v, want %v", op, got, want)
	}
	for i := 1; i < got.Len(); i++ {
		if Compare(got.elems[i-1], got.elems[i]) >= 0 {
			t.Fatalf("%s = %v: elements %d and %d out of order", op, got, i-1, i)
		}
	}
	if got.Hash() != want.Hash() {
		t.Fatalf("%s = %v: hash %x, NewSet twin %x", op, got, got.Hash(), want.Hash())
	}
	if slices.Contains(operands, got) || got == EmptySet {
		return
	}
	if cap(got.elems) != len(got.elems) {
		t.Fatalf("%s = %v: cap %d for %d elements", op, got, cap(got.elems), len(got.elems))
	}
}

// TestSetKernelsAgreeWithNewSet checks every set operation on random nested
// sets — ints, atoms, strings, compounds and sets drawn from one pool, so
// operands overlap — against NewSet over the concatenated or filtered
// elements.
func TestSetKernelsAgreeWithNewSet(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	pool := make([]Term, 48)
	for i := range pool {
		pool[i] = randTerm(r, 3)
	}
	draw := func() *Set {
		elems := make([]Term, r.Intn(14))
		for i := range elems {
			elems[i] = pool[r.Intn(len(pool))]
		}
		return NewSet(elems...)
	}
	for i := 0; i < 3000; i++ {
		a, b, x := draw(), draw(), pool[r.Intn(len(pool))]
		inB := func(e Term) bool { return has(b, e) }
		checkKernel(t, "union", a.Union(b), append(slices.Clone(a.Elems()), b.Elems()...), a, b)
		checkKernel(t, "intersect", a.Intersect(b), filter(a, inB), a, b)
		checkKernel(t, "difference", a.Difference(b), filter(a, func(e Term) bool { return !inB(e) }), a, b)
		checkKernel(t, "add", a.Add(x), append(slices.Clone(a.Elems()), x), a)
		if got, want := a.Contains(x), has(a, x); got != want {
			t.Fatalf("%v contains %v = %v, want %v", a, x, got, want)
		}
		if got, want := a.SubsetOf(b), len(filter(a, inB)) == a.Len(); got != want {
			t.Fatalf("%v ⊆ %v = %v, want %v", a, b, got, want)
		}
		if got, want := a.Disjoint(b), len(filter(a, inB)) == 0; got != want {
			t.Fatalf("%v disjoint %v = %v, want %v", a, b, got, want)
		}
	}
}

// TestKeyConcurrent renders the keys and strings of shared terms from
// several goroutines: keys are rendered on demand, so no term is written
// after its constructor returns (go test -race reports a lazy memo).
func TestKeyConcurrent(t *testing.T) {
	type rendered interface {
		Key() string
		String() string
	}
	build := func() []rendered {
		c := NewCompound("f", Atom("a"), Int(1))
		s := NewSet(c, Str("x"), NewSet(Int(2)))
		return []rendered{NewFact("p", s, c), s, c}
	}
	// The expected renderings come from a twin, so the shared terms are
	// first rendered inside the goroutines.
	terms, want := build(), []string{}
	for _, tm := range build() {
		want = append(want, tm.Key()+" "+tm.String())
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(terms))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tm := range terms {
				if got := tm.Key() + " " + tm.String(); got != want[i] {
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
