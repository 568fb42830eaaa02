package layering

import (
	"errors"
	"reflect"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/parser"
)

// TestCanonicalWitnessCycle: the witness cycle of NotAdmissibleError is
// rotated to its lexicographically smallest form, so rule order cannot
// change the reported cycle.
func TestCanonicalWitnessCycle(t *testing.T) {
	rules := []string{
		"b(X) <- c(X).",
		"c(X) <- d(X), not a(X).",
		"a(X) <- b(X).",
		"d(1).",
	}
	want := []string{"a", "b", "c", "a"}
	// Every rotation of the rule list must yield the identical witness.
	for shift := range rules {
		src := ""
		for i := range rules {
			src += rules[(i+shift)%len(rules)] + "\n"
		}
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Stratify(p)
		var nae *NotAdmissibleError
		if !errors.As(err, &nae) {
			t.Fatalf("shift %d: expected NotAdmissibleError, got %v", shift, err)
		}
		if !reflect.DeepEqual(nae.Cycle, want) {
			t.Errorf("shift %d: cycle %v, want %v", shift, nae.Cycle, want)
		}
	}
}

// TestEdges: Edges exposes the dependency relation with the inducing rule
// index, in rule order.
func TestEdges(t *testing.T) {
	p, err := parser.ParseProgram(
		"g(X, <Y>) <- e(X, Y).\n" +
			"h(X) <- g(X, S), not e(X, X), X = 1.\n" +
			"e(1, 2).\n")
	if err != nil {
		t.Fatal(err)
	}
	got := Edges(p)
	want := []DepEdge{
		{From: "g", To: "e", Strict: true, RuleIndex: 0},  // grouping head
		{From: "h", To: "g", Strict: false, RuleIndex: 1}, // plain positive
		{From: "h", To: "e", Strict: true, RuleIndex: 1},  // negated
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %+v, want %+v", got, want)
	}
}

// TestSCCs: mutually recursive predicates share a component; emission
// order lists dependencies first.
func TestSCCs(t *testing.T) {
	p, err := parser.ParseProgram(
		"p(X) <- q(X).\nq(X) <- p(X).\nq(X) <- base(X).\nbase(1).\n")
	if err != nil {
		t.Fatal(err)
	}
	sccs := SCCs(p)
	var pq int = -1
	for i, scc := range sccs {
		if reflect.DeepEqual(scc, []string{"p", "q"}) {
			pq = i
		}
	}
	if pq < 0 {
		t.Fatalf("p,q not in one SCC: %v", sccs)
	}
	for i, scc := range sccs {
		if len(scc) == 1 && scc[0] == "base" && i > pq {
			t.Errorf("dependency base emitted after its dependents: %v", sccs)
		}
	}
}

// TestBuiltinSetMatchesAst pins the reserved-predicate set layering reads
// from ast: every built-in, and no ordinary or near-miss name.
func TestBuiltinSetMatchesAst(t *testing.T) {
	for _, n := range []string{"member", "union", "partition", "set", "=", "/=", "<", "<=", ">", ">=", "true", "false"} {
		if !IsBuiltin(n) || !ast.IsBuiltinPred(n) {
			t.Errorf("%q is not a builtin", n)
		}
	}
	for _, n := range []string{"", "a", "sg", "members", "Set", "==", "=<", "!=", "magic_a", "true_"} {
		if IsBuiltin(n) || ast.IsBuiltinPred(n) {
			t.Errorf("%q is a builtin", n)
		}
	}
}
