package eval

import (
	"errors"
	"testing"

	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

func TestDerivationLimit(t *testing.T) {
	// Counting upward with a function symbol never terminates bottom-up
	// (U is infinite); the guard turns divergence into an error.
	p := parser.MustParseProgram(`
		nat(z).
		nat(s(X)) <- nat(X).
	`)
	_, err := Eval(p, store.NewDB(), Options{MaxDerived: 100})
	var le *lderr.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("expected LimitError, got %v", err)
	}
	if le.Limit != 100 {
		t.Errorf("limit = %d", le.Limit)
	}
	// A terminating program under a generous limit is unaffected.
	q := parser.MustParseProgram(`
		anc(X, Y) <- par(X, Y).
		anc(X, Y) <- par(X, Z), anc(Z, Y).
		par(a, b). par(b, c).
	`)
	db, err := Eval(q, store.NewDB(), Options{MaxDerived: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if db.Rel("anc").Len() != 3 {
		t.Errorf("anc = %d", db.Rel("anc").Len())
	}
	// Zero means unlimited.
	if _, err := Eval(q, store.NewDB(), Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivationLimitCountsDerivedOnly pins the MaxDerived semantics: the
// limit counts DERIVED facts only — not the input database — and is
// charged at the insertion of each new fact, so a run whose exact count
// fits the limit succeeds and one fact more fails.
func TestDerivationLimitCountsDerivedOnly(t *testing.T) {
	p := parser.MustParseProgram(ancestorSrc) // 4 parent facts, derives 8 ancestor facts
	derived := 8

	// A limit below the derivation count aborts.
	_, err := Eval(p, store.NewDB(), Options{MaxDerived: derived - 1})
	var le *lderr.LimitError
	if !errors.As(err, &le) {
		t.Errorf("limit %d: expected LimitError, got %v", derived-1, err)
	}
	// A limit at or above the derivation count succeeds.
	for _, limit := range []int{derived, derived + 1} {
		db, err := Eval(p, store.NewDB(), Options{MaxDerived: limit})
		if err != nil {
			t.Errorf("limit %d: unexpected error %v", limit, err)
		} else if db.Rel("ancestor").Len() != derived {
			t.Errorf("ancestor = %d, want %d", db.Rel("ancestor").Len(), derived)
		}
	}

	// The input database does not count against the limit, no matter how
	// large: 200 EDB facts with 3 derivations fit under a limit of 5.
	big := parser.MustParseProgram(`anc(X, Y) <- par(X, Y).`)
	edb := store.NewDB()
	for i := 0; i < 200; i++ {
		edb.Insert(term.NewFact("filler", term.Int(i)))
	}
	for i := 0; i < 3; i++ {
		edb.Insert(term.NewFact("par", term.Int(i), term.Int(i+1)))
	}
	db, err := Eval(big, edb, Options{MaxDerived: 5})
	if err != nil {
		t.Fatalf("EDB size counted against MaxDerived: %v", err)
	}
	if db.Rel("anc").Len() != 3 {
		t.Errorf("anc = %d, want 3", db.Rel("anc").Len())
	}
}
