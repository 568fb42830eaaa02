package layering

import (
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/parser"
)

// coarse returns the minimum-index layering of p, which these tests pin.
func coarse(t *testing.T, p *ast.Program) *Layering {
	t.Helper()
	l, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	return l.Coarse()
}

func TestAncestorSingleStratum(t *testing.T) {
	p := parser.MustParseProgram(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	`)
	l := coarse(t, p)
	if l.NumStrata != 1 {
		t.Fatalf("NumStrata = %d", l.NumStrata)
	}
	if l.Stratum["ancestor"] != 0 || l.Stratum["parent"] != 0 {
		t.Fatalf("strata = %v", l.Stratum)
	}
}

func TestExclAncestorTwoLayers(t *testing.T) {
	// §1: two layers — ancestor rules below the excl_ancestor rule.
	p := parser.MustParseProgram(`
		ancestor(X, Y) <- parent(X, Y).
		ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
	`)
	l := coarse(t, p)
	if l.NumStrata != 2 {
		t.Fatalf("NumStrata = %d, strata %v", l.NumStrata, l.Stratum)
	}
	if l.Stratum["excl_ancestor"] != 1 || l.Stratum["ancestor"] != 0 {
		t.Fatalf("strata = %v", l.Stratum)
	}
	if len(l.Rules[0]) != 2 || len(l.Rules[1]) != 1 {
		t.Fatalf("rule partition = %d/%d", len(l.Rules[0]), len(l.Rules[1]))
	}
}

func TestEvenProgramInadmissible(t *testing.T) {
	// §1: even must be in a layer below even — impossible.
	p := parser.MustParseProgram(`
		int(0).
		int(s(X)) <- int(X).
		even(0).
		even(s(X)) <- int(X), not even(X).
	`)
	_, err := Stratify(p)
	if err == nil {
		t.Fatal("even program must be inadmissible")
	}
	if !strings.Contains(err.Error(), "even") {
		t.Errorf("error should mention the cycle through even: %v", err)
	}
}

func TestRussellProgramInadmissible(t *testing.T) {
	// §2.3: p(<X>) <- p(X) has no model; the grouping self-dependency
	// makes it inadmissible.
	p := parser.MustParseProgram(`
		p(<X>) <- p(X).
		p(1).
	`)
	if _, err := Stratify(p); err == nil {
		t.Fatal("Russell-style program must be inadmissible")
	}
}

func TestGroupingForcesStrictlyLowerLayer(t *testing.T) {
	// §1 supplier-parts program: grouping head puts sp strictly below.
	p := parser.MustParseProgram(`
		part(P, <S>) <- sp(P, S).
		big(P) <- part(P, S), member(X, S), X > 10.
	`)
	l := coarse(t, p)
	if !(l.Stratum["sp"] < l.Stratum["part"]) {
		t.Fatalf("sp must be strictly below part: %v", l.Stratum)
	}
	if !(l.Stratum["part"] <= l.Stratum["big"]) {
		t.Fatalf("big at or above part: %v", l.Stratum)
	}
	// Built-ins never appear in the stratum map.
	if _, ok := l.Stratum["member"]; ok {
		t.Error("builtin member should not be stratified")
	}
}

func TestMutualRecursionOneStratum(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X) <- b(X).
		b(X) <- a(X).
		a(X) <- e(X).
	`)
	l := coarse(t, p)
	if l.Stratum["a"] != l.Stratum["b"] {
		t.Fatalf("mutually recursive predicates must share a stratum: %v", l.Stratum)
	}
}

func TestNegationChainLayers(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X) <- e(X).
		b(X) <- e(X), not a(X).
		c(X) <- e(X), not b(X).
		d(X) <- c(X), b(X).
	`)
	l := coarse(t, p)
	if !(l.Stratum["a"] < l.Stratum["b"] && l.Stratum["b"] < l.Stratum["c"]) {
		t.Fatalf("negation must strictly increase strata: %v", l.Stratum)
	}
	if l.Stratum["d"] < l.Stratum["c"] {
		t.Fatalf("d must not be below c: %v", l.Stratum)
	}
}

func TestNegationInsideRecursionInadmissible(t *testing.T) {
	p := parser.MustParseProgram(`
		win(X) <- move(X, Y), not win(Y).
	`)
	if _, err := Stratify(p); err == nil {
		t.Fatal("win/move with negation through recursion must be inadmissible")
	}
}

func TestGroupingThroughMutualRecursionInadmissible(t *testing.T) {
	p := parser.MustParseProgram(`
		p(<X>) <- q(X).
		q(Y) <- w(S, Y), p(S).
		q(1).
		w({1}, 7).
	`)
	// §2.3's two-minimal-models program: p > q and q ≥ p forms a cycle
	// through >, so it is not admissible.
	if _, err := Stratify(p); err == nil {
		t.Fatal("the §2.3 two-minimal-models program must be inadmissible")
	}
}

func TestYoungProgramLayers(t *testing.T) {
	// §6 running example.
	p := parser.MustParseProgram(`
		a(X, Y) <- p(X, Y).
		a(X, Y) <- a(X, Z), a(Z, Y).
		sg(X, Y) <- siblings(X, Y).
		sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
		young(X, <Y>) <- not a(X, Z), sg(X, Y), person(Z).
	`)
	l := coarse(t, p)
	if !(l.Stratum["a"] < l.Stratum["young"] && l.Stratum["sg"] < l.Stratum["young"]) {
		t.Fatalf("young must be above a and sg: %v", l.Stratum)
	}
}

func TestStratumMapIncludesAllPredicates(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X, Y) <- p(X, Y).
		young(X, <Y>) <- a(X, Y).
	`)
	l := coarse(t, p)
	for _, pred := range []string{"a", "p", "young"} {
		if _, ok := l.Stratum[pred]; !ok {
			t.Errorf("stratum map missing %s (stratum-0 predicates must be materialized)", pred)
		}
	}
}
