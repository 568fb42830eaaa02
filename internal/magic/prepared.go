package magic

import (
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
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
	// every relation, under adorned names, in a clone of the input
	// database.
	DB *store.DB
	// Solutions is the answer table read off the adorned query predicate:
	// one sorted row per answer, columns as eval.Query.Solve gives them.
	Solutions [][]term.Term
	// Passes is the number of saturation passes.  It is 1 when every magic
	// fact is found no later than the first rule group that reads it — a
	// feed-forward program, the common case — and grows by one each time a
	// binding found in a higher layer has to reach rules placed in a lower
	// one (the §6 running example's young(n, S) takes 2).
	Passes int
}

// Prepared is a query compiled once for a binding pattern: the program is
// adorned, magic-rewritten, stratum-grouped and compiled up front, with the
// seed fact factored out so Exec can re-bind the query's constants per call.
// Adornment depends only on which argument positions are ground — never on
// their values — so one Prepared serves every query of the same predicate
// and binding pattern.  A Prepared is immutable after PrepareVariant (its
// join-order memos publish safely) and safe for concurrent Exec calls.
type Prepared struct {
	// Adorned and Rewritten are the compiled forms, as in Result.  Exec
	// evaluates Rewritten.Groups, compiled once into prog, and supplies the
	// seed from its per-call constants.
	Adorned   *AdornedProgram
	Rewritten *Rewritten
	prog      *eval.Program
	// answer reads the answers off Rewritten.AnswerPred; its parameters are
	// the bound positions, which Exec binds to the seed constants.
	answer *eval.Query
	// seedPred is the magic predicate the seed fact instantiates.
	seedPred string
	// defaults are the seed constants of the original query, one per bound
	// argument position, used when Exec is called without explicit ones.
	defaults []term.Term
	// due maps a magic predicate to the last group in which a new fact of
	// it is on time: the lowest group holding a rule that reads it, or the
	// one before when that rule groups (a grouping rule runs once, on entry
	// to its group).  A fact found later was missed by that rule.
	due map[string]int
	// volatile lists the derived predicates that are not monotone in the
	// magic set — defined through grouping or negation, directly or by way
	// of another such predicate.  A fact of one, derived while bindings were
	// still missing, may be wrong once they arrive (a partial set, an
	// absence since filled), so each further pass derives them afresh.
	// Every other derived fact only ever gains company and is kept.
	volatile []string
}

// PrepareVariant compiles program + query for repeated execution under the
// given rewriting variant.  stored names the intensional predicates whose
// facts the databases Exec will read hold (AdornedProgram.Stored).
func PrepareVariant(p *ast.Program, query parser.Query, v Variant, stored ...string) (*Prepared, error) {
	ap, err := Adorn(p, query)
	if err != nil {
		return nil, err
	}
	ap.Stored = stored
	var rw *Rewritten
	if v == Supplementary {
		rw, err = RewriteSupplementary(ap)
	} else {
		rw, err = Rewrite(ap)
	}
	if err != nil {
		return nil, err
	}
	prog, err := eval.Compile(rw.Groups)
	if err != nil {
		return nil, err
	}
	pr := &Prepared{
		Adorned:   ap,
		Rewritten: rw,
		prog:      prog,
		answer:    eval.NewQuery([]ast.Literal{{Pred: rw.AnswerPred, Args: ap.QueryLit.Args}}),
		seedPred:  rw.Seed.Head.Pred,
		defaults:  append([]term.Term(nil), rw.Seed.Head.Args...),
	}
	pr.due = map[string]int{}
	for g, rules := range rw.Groups {
		for _, r := range rules {
			by := g
			if r.IsGroupingRule() {
				by--
			}
			for _, l := range r.Body {
				if d, ok := pr.due[l.Pred]; rw.MagicPreds[l.Pred] && (!ok || by < d) {
					pr.due[l.Pred] = by
				}
			}
		}
	}
	volatile := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, r := range rw.Program.Rules {
			vol := r.IsGroupingRule()
			for _, l := range r.Body {
				vol = vol || volatile[l.Pred] || l.Negated && !layering.IsBuiltin(l.Pred)
			}
			// Magic facts are never taken back: a binding too many only
			// asks for facts nobody reads.
			if h := r.Head.Pred; vol && !volatile[h] && !rw.MagicPreds[h] {
				volatile[h], changed = true, true
				pr.volatile = append(pr.volatile, h)
			}
		}
	}
	return pr, nil
}

// Exec evaluates the prepared query against edb with the given constants
// bound at the query's bound argument positions, in ascending order, as
// Table does, and returns the saturation's database and passes beside the
// answer rows.
func (pr *Prepared) Exec(edb *store.DB, consts []term.Term, opts eval.Options) (*Result, error) {
	res, t, err := pr.exec(edb, consts, opts)
	if err != nil {
		return nil, err
	}
	res.Solutions = t.Rows()
	return &res, nil
}

// Table evaluates the prepared query against edb with the given constants
// bound at the query's bound argument positions, in ascending order, and
// returns its answer table, columns as eval.Query.Solve gives them.  Nil
// consts re-runs the original query's constants.
//
// The saturation runs on one clone of the database with the seed inserted.
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
//
// The saturation works on a clone of edb: base relations — with the
// indexes they have built, which an execution may add to — are shared with
// edb and with every concurrent execution, and only derived and magic
// relations are private.  edb itself is never written to.
func (pr *Prepared) Table(edb *store.DB, consts []term.Term, opts eval.Options) (eval.Table, error) {
	_, t, err := pr.exec(edb, consts, opts)
	return t, err
}

// exec is Table, returning the result of the saturation, without its
// rows, too.
func (pr *Prepared) exec(edb *store.DB, consts []term.Term, opts eval.Options) (Result, eval.Table, error) {
	if consts == nil {
		consts = pr.defaults
	}
	if len(consts) != len(pr.defaults) {
		return Result{}, eval.Table{}, fmt.Errorf("magic: prepared query %s^%s takes %d constants, got %d",
			pr.Adorned.QueryPred, pr.Adorned.QueryAdorn, len(pr.defaults), len(consts))
	}
	seedArgs := make([]term.Term, len(consts))
	var none unify.Bindings
	for i, c := range consts {
		v, err := unify.Apply(c, &none)
		if err != nil {
			return Result{}, eval.Table{}, fmt.Errorf("magic: prepared constant %s: %w", c, err)
		}
		if !term.IsGround(v) {
			return Result{}, eval.Table{}, fmt.Errorf("magic: prepared constant %s is not ground", c)
		}
		seedArgs[i] = v
	}

	db := edb.Clone()
	db.Insert(term.NewFact(pr.seedPred, seedArgs...))
	// found counts the magic facts seen so far, per predicate; the seed is
	// there before the first pass and so is never late.
	found := map[string]int{pr.seedPred: 1}
	res := Result{Adorned: pr.Adorned, Rewritten: pr.Rewritten, DB: db}
	for {
		if res.Passes++; res.Passes > maxPasses {
			return Result{}, eval.Table{}, fmt.Errorf("magic: no fixpoint after %d passes", maxPasses)
		}
		if res.Passes > 1 {
			for _, pred := range pr.volatile {
				db.Clear(pred)
			}
		}
		late := false
		err := pr.prog.Run(db, opts, func(g int) {
			for m := range pr.Rewritten.MagicPreds {
				if n := db.Card(m); n > found[m] {
					found[m] = n
					if d, read := pr.due[m]; read && g > d {
						late = true
					}
				}
			}
		})
		if err != nil {
			return Result{}, eval.Table{}, err
		}
		if !late {
			break
		}
	}

	// Read the answers off the adorned query predicate, the per-call
	// constants bound at the bound positions.
	t, err := pr.answer.Solve(opts.Ctx, db, seedArgs, eval.SolveLimits{})
	if err != nil {
		return Result{}, eval.Table{}, err
	}
	return res, t, nil
}
