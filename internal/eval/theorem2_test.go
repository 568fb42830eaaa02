package eval

import (
	"testing"

	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// TestTheorem2LayeringIndependence checks Theorem 2: two different
// layerings of the same admissible program yield the same model.
func TestTheorem2LayeringIndependence(t *testing.T) {
	srcs := []string{
		// Multi-layer with negation and grouping.
		`a(X, Y) <- p(X, Y).
		 a(X, Y) <- a(X, Z), a(Z, Y).
		 sg(X, Y) <- siblings(X, Y).
		 sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
		 hasdesc(X) <- a(X, Z).
		 young(X, <Y>) <- sg(X, Y), not hasdesc(X).
		 p(adam, mary). p(adam, pat). p(mary, john). p(pat, jack).
		 siblings(mary, pat). siblings(pat, mary).`,
		// Independent SCCs that the finest layering separates.
		`r1(X) <- e(X).
		 r2(X) <- f(X).
		 both(X) <- r1(X), r2(X).
		 neither(X) <- g(X), not r1(X), not r2(X).
		 e(1). f(1). f(2). g(1). g(2). g(3).`,
		// Grouping feeding grouping.
		`q(1). q(2).
		 p(<X>) <- q(X).
		 w(<S>) <- p(S).
		 big(S) <- w(W), member(S, W).`,
	}
	for i, src := range srcs {
		p := parser.MustParseProgram(src)
		fine, err := layering.Stratify(p)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		coarse := fine.Coarse()
		if fine.NumStrata <= coarse.NumStrata && i != 0 {
			t.Logf("program %d: layerings coincide (%d strata)", i, fine.NumStrata)
		}
		dbA := store.NewDB()
		if err := evalGroups(coarse.Rules, dbA, Options{}); err != nil {
			t.Fatalf("program %d coarse: %v", i, err)
		}
		dbB := store.NewDB()
		if err := evalGroups(fine.Rules, dbB, Options{}); err != nil {
			t.Fatalf("program %d fine: %v", i, err)
		}
		if !dbA.Equal(dbB) {
			t.Errorf("program %d: Theorem 2 violated\n--- coarse (%d strata)\n%s\n--- fine (%d strata)\n%s",
				i, coarse.NumStrata, dbA, fine.NumStrata, dbB)
		}
		// And both strategies under both layerings.
		dbC := store.NewDB()
		if err := evalGroups(fine.Rules, dbC, Options{Strategy: Naive}); err != nil {
			t.Fatalf("program %d fine naive: %v", i, err)
		}
		if !dbA.Equal(dbC) {
			t.Errorf("program %d: naive under fine layering differs", i)
		}
	}
}
