package magic

import (
	"fmt"
	"slices"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// maxPasses bounds the outer magic-saturation loop as a safety net; every
// pass but the last adds a magic fact, so the loop terminates on its own for
// admissible inputs.
const maxPasses = 1000

// Result is the outcome of magic-sets query evaluation.
type Result struct {
	// Adorned is the adorned program (step two of §6).
	Adorned *AdornedProgram
	// Rewritten is the magic program (step three of §6).
	Rewritten *Rewritten
	// DB is the database the saturation ended on: the relevant portions of
	// every relation, under adorned names, in a copy-on-write fork of the
	// input database.  Base relations are the input's own: do not mutate
	// them.
	DB *store.DB
	// Solutions is the answer table read off the adorned query predicate:
	// one sorted row per answer, columns as eval.Solve gives them.
	Solutions [][]term.Term
	// Passes is the number of saturation passes.  It is 1 when every magic
	// fact is found no later than the first rule group that reads it — a
	// feed-forward program, the common case — and grows by one each time a
	// binding found in a higher layer has to reach rules placed in a lower
	// one (the §6 running example's young(n, S) takes 2).
	Passes int
}

// Answer evaluates the query against program + database using the magic
// sets method end to end: adorn, rewrite, then evaluate the rewritten
// program by iterated stratified saturation, in place, on one copy-on-write
// fork of the database with the seed inserted.
//
// Because the rewritten program is not layered (§6), a pass evaluates the
// rewritten rules group by group along the ORIGINAL program's layering
// (Rewritten.Groups).  A pass is final when no magic fact it found arrived
// late: after the first group holding a rule that reads it, or in that
// group when the rule groups.  In a final pass every rule therefore ran
// with every binding it will ever see, over lower layers evaluated under
// those same bindings — grouped and negated bodies fully evaluated for every
// magic binding, exactly the §6 evaluation constraint.  Otherwise another
// pass runs, on the same database: magic facts stay (a binding too many only
// asks for facts nobody reads), and so do the facts of predicates defined
// without grouping or negation, directly or through another predicate —
// those are monotone in the magic set, so what held under fewer bindings
// holds under more.  Only the remaining derived relations, where a fact
// derived under missing bindings can be wrong (a partial set, an absence
// since filled), are emptied and derived afresh.
func Answer(p *ast.Program, edb *store.DB, query parser.Query, opts eval.Options) (*Result, error) {
	return AnswerVariant(p, edb, query, opts, Basic)
}

// AnswerVariant is Answer under an explicit choice of rewriting variant.
// It is PrepareVariant followed by one Exec of the original constants; the
// prepared path exists so callers issuing the same query shape repeatedly
// can skip the compilation steps.
func AnswerVariant(p *ast.Program, edb *store.DB, query parser.Query, opts eval.Options, v Variant) (*Result, error) {
	pr, err := PrepareVariant(p, query, v)
	if err != nil {
		return nil, err
	}
	return pr.Exec(edb, nil, opts)
}

// AnswerWithout evaluates the same query without magic sets, as the
// baseline: full bottom-up evaluation followed by filtering.  The answer
// table has the shape of Result.Solutions.
func AnswerWithout(p *ast.Program, edb *store.DB, query parser.Query, opts eval.Options) ([][]term.Term, *store.DB, error) {
	db, err := eval.Eval(p, edb, opts)
	if err != nil {
		return nil, nil, err
	}
	sols, err := eval.SolveCtx(opts.Ctx, query.Body, db)
	if err != nil {
		return nil, nil, err
	}
	return sols, db, nil
}

// SameSolutions reports whether two answer tables of one query hold the
// same rows.  Both are sorted and duplicate-free (eval.Solve), so that is
// equality in order.
func SameSolutions(a, b [][]term.Term) bool {
	return slices.EqualFunc(a, b, func(x, y []term.Term) bool { return eval.CompareRows(x, y) == 0 })
}

// ParseAndAnswer is a convenience wrapper: parse source containing rules,
// facts and exactly one query, then run Answer.
func ParseAndAnswer(src string, opts eval.Options) (*Result, error) {
	unit, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(unit.Queries) != 1 {
		return nil, fmt.Errorf("magic: source must contain exactly one query, got %d", len(unit.Queries))
	}
	return Answer(unit.Program, store.NewDB(), unit.Queries[0], opts)
}
