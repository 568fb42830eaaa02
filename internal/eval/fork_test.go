package eval

import (
	"fmt"
	"testing"

	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// TestEvalGroupsOnFork: p is both extensional and derived, and is evaluated
// in place on a clone.  The first derived fact replaces the relation the
// clone shares with its source by a private copy; the rule's allocation-free
// duplicate probe must follow it there.  Probing the source's relation for
// the rest of that rule application misses every fact derived in it, so
// each re-derivation builds a fact only for Insert to turn it down: the
// model stays right and the allocations give it away.
func TestEvalGroupsOnFork(t *testing.T) {
	// n nodes joined to each other only through h hubs: the first rule
	// application derives each of the n*n pairs once per hub.
	const n, h = 20, 6
	p := parser.MustParseProgram("p(X, Y) <- p(X, Z), p(Z, Y).")
	lay, err := layering.Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	parent := store.NewDB()
	for i := 0; i < n; i++ {
		for k := n; k < n+h; k++ {
			parent.Insert(term.NewFact("p", term.Int(i), term.Int(k)))
			parent.Insert(term.NewFact("p", term.Int(k), term.Int(i)))
		}
	}
	const edb, closure = 2 * n * h, (n + h) * (n + h)
	before, beforeText := parent.Clone(), parent.String()
	want, err := Eval(p, parent, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != closure {
		t.Fatalf("closure has %d facts, want %d", want.Len(), closure)
	}

	for _, workers := range []int{1, 2} {
		var st Stats
		cl := parent.Clone()
		if err := EvalGroups(lay.Rules, cl, Options{Workers: workers, Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if !cl.Equal(want) {
			t.Errorf("workers=%d: model on the clone differs from Eval's", workers)
		}
		if st.Derived != closure-edb {
			t.Errorf("workers=%d: derived %d, want %d", workers, st.Derived, closure-edb)
		}
		if parent.String() != beforeText || !parent.Equal(before) || parent.Len() != edb ||
			fmt.Sprint(parent.Preds()) != "[p]" || parent.RelOrNil("p").Len() != edb {
			t.Errorf("workers=%d: evaluation on the clone changed its source", workers)
		}
	}

	var st Stats
	if err := EvalGroups(lay.Rules, parent.Clone(), Options{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	dups := st.Firings - st.Derived
	allocs := testing.AllocsPerRun(5, func() {
		if err := EvalGroups(lay.Rules, parent.Clone(), Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d firings, %d of them re-derivations, %.0f allocations", st.Firings, dups, allocs)
	// A fact built per re-derivation would be two allocations (arguments,
	// fact); the first rule application alone re-derives n*n*(h-1) times.
	if int(allocs) > n*n*(h-1) {
		t.Errorf("%.0f allocations for %d re-derivations: the duplicate probe is reading a stale relation", allocs, dups)
	}
}

// TestNegatedLiteralProbesWithoutFact: checking `not q(t̄)` needs q's
// relation and the ground arguments, not a fact.  On a complete model every
// firing of the excl_ancestor rule re-derives, so what is left to allocate
// is per negated check — two objects each (argument slice, fact) when the
// check builds one.
func TestNegatedLiteralProbesWithoutFact(t *testing.T) {
	const chain, people = 24, 24
	p := parser.MustParseProgram(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		excl(X, Y, Z) <- anc(X, Y), not anc(X, Z), person(Z).`)
	lay, err := layering.Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	edb := store.NewDB()
	for i := 0; i+1 < chain; i++ {
		edb.Insert(term.NewFact("par", term.Int(i), term.Int(i+1)))
	}
	for i := 0; i < people; i++ {
		edb.Insert(term.NewFact("person", term.Int(i)))
	}
	model, err := Eval(p, edb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checks := model.Card("anc") * people
	allocs := testing.AllocsPerRun(5, func() {
		if err := EvalGroups(lay.Rules, model.Clone(), Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d negated checks, %.0f allocations", checks, allocs)
	if int(allocs) > checks/2 {
		t.Errorf("%.0f allocations for %d negated checks: the check builds a fact", allocs, checks)
	}
}
