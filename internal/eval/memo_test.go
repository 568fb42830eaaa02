package eval_test

import (
	"fmt"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// treeProgram is the §6 young program with the kids grouping rule: the
// program the embed-magic benchmark prepares its query shapes over.
const treeProgram = `
	a(X, Y) <- p(X, Y).
	a(X, Y) <- a(X, Z), a(Z, Y).
	sg(X, Y) <- siblings(X, Y).
	sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
	hasdesc(X) <- a(X, Z).
	young(X, <Y>) <- sg(X, Y), not hasdesc(X).
	kids(P, <C>) <- p(P, C).
`

func node(i int) term.Term { return term.Atom(fmt.Sprintf("n%d", i)) }

// tree is the complete binary tree of the given depth as p/siblings facts.
func tree(depth int) *store.DB {
	db := store.NewDB()
	for i := 1; i < 1<<depth; i++ {
		db.Insert(term.NewFact("p", node(i), node(2*i)))
		db.Insert(term.NewFact("p", node(i), node(2*i+1)))
		db.Insert(term.NewFact("siblings", node(2*i), node(2*i+1)))
		db.Insert(term.NewFact("siblings", node(2*i+1), node(2*i)))
	}
	return db
}

// TestPreparedMemoSettles runs one prepared query per benchmark shape and
// rewriting over every key of a depth-6 tree, twice.  The first sweep fills
// the join-order memos of the compiled program; the second adds no entry,
// so it compiles no access path of the program: each of its rounds only
// orders.  (The answer read, eval.SolveCtx over the query literal with the
// execution's constants, plans once per call and keeps nothing.)
func TestPreparedMemoSettles(t *testing.T) {
	edb := tree(6)
	for _, v := range []magic.Variant{magic.Basic, magic.Supplementary} {
		for _, shape := range []string{"a(n1, W)", "sg(n1, W)", "young(n1, S)"} {
			q, err := parser.ParseQuery(shape)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := magic.PrepareVariant(parser.MustParseProgram(treeProgram), q, v)
			if err != nil {
				t.Fatal(err)
			}
			sweep := func() int64 {
				before := eval.PlansCompiled()
				for n := 1; n < 1<<7; n++ {
					if _, err := pr.Exec(edb, []term.Term{node(n)}, eval.Options{}); err != nil {
						t.Fatalf("%s @n%d: %v", shape, n, err)
					}
				}
				return eval.PlansCompiled() - before
			}
			first := sweep()
			if again := sweep(); first == 0 || again != 0 {
				t.Errorf("variant %d %s: the first sweep compiled %d plans, the second %d; want some, then none",
					v, shape, first, again)
			}
		}
	}
}
