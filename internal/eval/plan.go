// Package eval implements the bottom-up operational semantics of §3.2: the
// R(M) operator, grouping by ≡-equivalence classes, stratified negation,
// and naive and semi-naive fixpoint evaluation layer by layer (Theorem 1).
package eval

import (
	"fmt"

	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/builtin"
	"ldl1/internal/layering"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// FlounderError reports a rule body that cannot be ordered so that every
// built-in and negated literal becomes sufficiently instantiated.
type FlounderError struct {
	Rule ast.Rule
	Lits []ast.Literal
}

func (e *FlounderError) Error() string {
	return fmt.Sprintf("cannot order body of rule %q: literals %v never become sufficiently instantiated", e.Rule.String(), e.Lits)
}

// keyFn produces the probe value for one planned index column at execution
// time.  A nil error yields a ground value; an error wrapping
// unify.ErrOutsideU means the literal can match nothing under the current
// bindings; unify.ErrUnbound means the plan-time binding analysis
// over-promised (the caller falls back to a scan — defensive, should not
// happen for plans produced by planBody).
type keyFn func(b *unify.Bindings) (term.Term, error)

// access is the compiled access path for one body literal under a plan:
// the argument columns guaranteed ground when the literal executes, in
// ascending order, with one pre-compiled key extractor per column.  A
// literal with no usable column has nil cols (full scan).  Negated and
// built-in literals carry cols — the binding analysis feeds magic-set
// adornment — but no extractors, since they never probe a relation.
type access struct {
	cols []int
	keys []keyFn
	// full reports that cols is every column of a positive database
	// literal: a probe names one fact.
	full bool
}

// bodyPlan is a compiled rule body: the literal execution order plus the
// access path of each step (acc is parallel to order).  Plans are computed
// once per rule (variant) per layer and shared by every candidate scan,
// including the per-worker delta chunks of a parallel round.
type bodyPlan struct {
	order []int
	acc   []access
	// reordered reports that the cost model chose a different literal than
	// the static most-bound-columns heuristic would have, at some step.
	reordered bool
	// est[k] is the planner's estimated candidate count for step k (0 for
	// built-ins and negated tests); estRows is their sum.
	est     []int64
	estRows int64
}

// Plan is the public view of a compiled body plan, used by the magic-sets
// compiler (§6) to derive sideways information passing: the execution
// order plus, for each body literal (by original body position), the
// argument columns that are ground when it executes.  Plans compiled
// against a live database (CompileBodyDB) additionally carry the cost
// model's per-step candidate estimates.
type Plan struct {
	Order     []int
	BoundCols [][]int
	// Est is parallel to Order: the estimated candidate facts per probe of
	// each step, 0 for built-ins and negated tests.  Nil for plans compiled
	// without a database.
	Est []int64
	// Reordered reports that the cost model departed from the static
	// most-bound-columns order somewhere in the plan.
	Reordered bool
}

// CompileBody plans the rule body — forcedFirst (-1: none) leading,
// preBound ground on entry — and exposes the execution order with the
// per-literal bound-column analysis.  The order is the static one —
// data-independent, so magic-set sips and analysis diagnostics are stable
// across databases.
func CompileBody(r ast.Rule, forcedFirst int, preBound map[term.Var]bool) (*Plan, error) {
	return compilePlan(r, forcedFirst, preBound, nil, nil)
}

// CompileBodyDB is CompileBody under the cost model: body literals are
// scheduled by estimated candidate count against the live cardinalities of
// db, refined by the inferred type environment when env is non-nil (probes
// proven empty by typing cost 0; int-keyed probes win ties).  A nil db
// degrades to the static order.
func CompileBodyDB(r ast.Rule, forcedFirst int, preBound map[term.Var]bool, db *store.DB, env *types.Env) (*Plan, error) {
	return compilePlan(r, forcedFirst, preBound, db, env)
}

func compilePlan(r ast.Rule, forcedFirst int, preBound map[term.Var]bool, db *store.DB, env *types.Env) (*Plan, error) {
	p, err := planBodyDB(r, forcedFirst, preBound, db, env)
	if err != nil {
		return nil, err
	}
	out := &Plan{Order: p.order, BoundCols: make([][]int, len(r.Body)), Reordered: p.reordered}
	for step, idx := range p.order {
		out.BoundCols[idx] = p.acc[step].cols
	}
	if db != nil {
		out.Est = p.est
	}
	return out, nil
}

// compileAccess records which argument columns of l are ground given the
// bound-variable set, compiling a key extractor per column when withKeys
// is set (positive database literals — the only ones that probe a store
// relation).  argVars carries the pre-extracted variable list of each
// argument (parallel to l.Args).
func compileAccess(l ast.Literal, argVars [][]term.Var, bound map[term.Var]bool, withKeys bool) access {
	var a access
	for col, arg := range l.Args {
		grounded := true
		for _, v := range argVars[col] {
			if !bound[v] {
				grounded = false
				break
			}
		}
		if !grounded {
			continue
		}
		a.cols = append(a.cols, col)
		if withKeys {
			a.keys = append(a.keys, compileKey(arg))
		}
	}
	a.full = withKeys && len(a.cols) == len(l.Args)
	return a
}

// compileKey builds the runtime extractor for one planned column.
// Plan-time ground arguments evaluate once, here; variable arguments
// reduce to a bindings lookup; anything else falls back to partial
// application plus full evaluation.
func compileKey(arg term.Term) keyFn {
	if v, ok := arg.(term.Var); ok {
		return func(b *unify.Bindings) (term.Term, error) {
			t, ok := b.Lookup(v)
			if !ok {
				return nil, unify.ErrUnbound
			}
			return t, nil
		}
	}
	if term.IsGround(arg) {
		// A constant column: evaluate interpreted functors now.  An
		// ErrOutsideU here means the literal can never match.
		v, err := unify.Apply(arg, unify.NewBindings())
		return func(*unify.Bindings) (term.Term, error) { return v, err }
	}
	return func(b *unify.Bindings) (term.Term, error) {
		pat := unify.ApplyPartial(arg, b)
		if !term.IsGround(pat) {
			return nil, unify.ErrUnbound
		}
		return unify.Apply(pat, b)
	}
}

// planBody compiles a rule body: it orders the literals for left-to-right
// join execution and records, per step, the access path — the columns
// ground at execution time with their key extractors.  At each step it
// prefers, among the remaining literals:
//
//  1. fully bound tests (negated literals, test-mode built-ins) — cheapest,
//  2. built-ins with a satisfiable generator mode,
//  3. positive database literals, most bound arguments first.
//
// A positive database literal is a candidate only once matching it binds
// all its variables (ast.Binds): b(X + 1) waits for X, s(X, {X}) does not.
// If forcedFirst >= 0 that literal (the semi-naive delta occurrence) is
// scheduled as soon as it is a candidate — first, unless an interpreted
// argument waits for variables other literals bind.  preBound seeds the
// bound-variable set (magic evaluation).
func planBody(r ast.Rule, forcedFirst int, preBound map[term.Var]bool) (*bodyPlan, error) {
	return planBodyDB(r, forcedFirst, preBound, nil, nil)
}

// unknownCard is the assumed cardinality of a predicate with no relation in
// the database at plan time — typically an IDB predicate whose facts have
// not been derived yet.  Deliberately modest: an absent relation should
// neither be greedily scheduled first (it may fill up during the fixpoint)
// nor pushed last behind huge base relations.
const unknownCard = 64

// estimate returns the expected number of candidate facts one probe of the
// literal yields, given the bound-column set cols, plus the relation's
// current size.  The model is deliberately coarse — it only has to rank
// join candidates, not price them:
//
//   - every column bound: at most one fact (set semantics point lookup),
//   - an index over exactly cols exists: n / distinct keys,
//   - k columns bound, no index yet: n >> 3k (each bound column is assumed
//     to be roughly 8x selective),
//   - nothing bound: the whole relation.
func estimate(db *store.DB, pred string, cols []int, arity int) (est, n int64) {
	rel := db.RelOrNil(pred)
	if rel == nil {
		n = unknownCard
	} else {
		n = int64(rel.Len())
	}
	k := len(cols)
	switch {
	case k == 0:
		est = n
	case k == arity:
		est = 1
	default:
		est = -1
		if rel != nil {
			if d, ok := rel.DistinctCols(cols); ok && d > 0 {
				est = (n + int64(d) - 1) / int64(d)
			}
		}
		if est < 0 {
			shift := 3 * k
			if shift > 62 {
				shift = 62
			}
			est = n >> uint(shift)
		}
		if est < 1 {
			est = 1
		}
	}
	return est, n
}

// planBodyDB is planBody with an optional database: when db is non-nil the
// class-3 choice (positive database literals) is cost-based — the literal
// with the smallest estimated candidate count runs next, with ties broken
// by more bound columns, then more int-typed bound columns, then smaller
// relation, then source order.  A non-nil env refines the estimates with
// inferred types: a literal whose argument types are disjoint from the
// predicate's inferred signature (or whose predicate is provably empty)
// can never match and costs 0, and ties prefer probes whose bound columns
// are statically integers — those hit the store's compact int-keyed index
// paths.  A nil db preserves the static most-bound-columns order exactly,
// which keeps magic-set sips, analysis diagnostics, and maintenance plans
// data-independent.
func planBodyDB(r ast.Rule, forcedFirst int, preBound map[term.Var]bool, db *store.DB, env *types.Env) (*bodyPlan, error) {
	body := r.Body
	n := len(body)
	used := make([]bool, n)
	bound := map[term.Var]bool{}
	for v := range preBound {
		bound[v] = true
	}
	// Variable occurrences, extracted once per argument: the scheduling
	// loops below re-consult them every step, and VarsOf allocates per
	// call.  A literal's variables are the union over its arguments; the
	// loops tolerate a variable shared between arguments appearing in
	// several lists.
	argVars := make([][][]term.Var, n)
	for i, l := range body {
		av := make([][]term.Var, len(l.Args))
		for j, a := range l.Args {
			av[j] = term.VarsOf(a)
		}
		argVars[i] = av
	}
	isBound := func(v term.Var) bool { return bound[v] }
	// dbLeft: i is an unscheduled positive database literal; dbReady: one
	// whose match binds every variable it has.
	dbLeft := func(i int) bool {
		l := body[i]
		return !used[i] && !l.Negated && !layering.IsBuiltin(l.Pred)
	}
	dbReady := func(i int) bool { return dbLeft(i) && ast.Binds(isBound, body[i].Args...) }
	bindAll := func(i int) {
		for _, av := range argVars[i] {
			for _, v := range av {
				bound[v] = true
			}
		}
	}
	// Typed selectivity: the rule's variable types under env, computed
	// lazily — RuleVarTypes runs a per-body meet fixpoint, so only pay for
	// it when a database literal is actually priced.  The store is
	// binding-independent, so one computation serves every step.  Only the
	// individually unmatchable literal is priced at zero (not every literal
	// of a dead rule): that schedules the refuting probe first, so the join
	// short-circuits after zero candidate facts.
	var (
		tvt     map[term.Var]types.Type
		tLoaded bool
	)
	typedPrune := func(l ast.Literal) bool {
		if env == nil {
			return false
		}
		if !tLoaded {
			tvt, _ = env.RuleVarTypes(r)
			tLoaded = true
		}
		if env.ProvablyEmpty(l.Pred, len(l.Args)) {
			return true
		}
		for col, arg := range l.Args {
			ta := env.TypeOfArg(tvt, arg)
			tc := env.ArgType(l.Pred, len(l.Args), col)
			if ta.IsBottom() || tc.IsBottom() {
				continue
			}
			if types.Meet(ta, tc).IsBottom() {
				return true
			}
		}
		return false
	}
	intBound := func(l ast.Literal, cols []int) int {
		if env == nil {
			return 0
		}
		k := 0
		for _, c := range cols {
			if env.ArgType(l.Pred, len(l.Args), c).Kinds == types.Int {
				k++
			}
		}
		return k
	}
	p := &bodyPlan{order: make([]int, 0, n), acc: make([]access, 0, n), est: make([]int64, 0, n)}
	take := func(i int) {
		l := body[i]
		isDB := !l.Negated && !layering.IsBuiltin(l.Pred)
		// The access path is determined by the bindings BEFORE this
		// literal runs; compute it before extending the bound set.
		a := compileAccess(l, argVars[i], bound, isDB)
		p.acc = append(p.acc, a)
		var stepEst int64
		if db != nil && isDB {
			stepEst, _ = estimate(db, l.Pred, a.cols, len(l.Args))
			if stepEst > 0 && typedPrune(l) {
				stepEst = 0
			}
			p.estRows += stepEst
		}
		p.est = append(p.est, stepEst)
		p.order = append(p.order, i)
		used[i] = true
		bindAll(i)
	}
	for len(p.order) < n {
		chosen := -1
		if forcedFirst >= 0 && dbReady(forcedFirst) {
			chosen, forcedFirst = forcedFirst, -1
		}
		// Class 1: fully bound tests.
		for i := 0; i < n && chosen < 0; i++ {
			if used[i] {
				continue
			}
			l := body[i]
			if !l.Negated && !layering.IsBuiltin(l.Pred) {
				continue
			}
			allBound := true
		scan:
			for _, av := range argVars[i] {
				for _, v := range av {
					if !bound[v] {
						allBound = false
						break scan
					}
				}
			}
			if allBound && (!layering.IsBuiltin(l.Pred) || builtin.Ready(l, isBound)) {
				chosen = i
			}
		}
		// Class 2: ready generator built-ins.
		for i := 0; i < n && chosen < 0; i++ {
			if used[i] || body[i].Negated || !layering.IsBuiltin(body[i].Pred) {
				continue
			}
			if builtin.Ready(body[i], isBound) {
				chosen = i
			}
		}
		// Class 3: positive database literals.  Statically: most bound
		// argument columns first, source order on ties.  With a database
		// to consult, cost-based: smallest estimated candidate count
		// first — a bound-key probe of a large relation beats scanning a
		// small one only when the estimate says so.  A literal whose
		// interpreted argument waits on a variable nothing binds (LDL106
		// warns) is taken only when no other is left; it matches nothing.
		if chosen < 0 {
			cand, posLeft := dbReady, 0
			for i := 0; i < n; i++ {
				if cand(i) {
					posLeft++
				}
			}
			if posLeft == 0 {
				cand = dbLeft
			}
			staticBest := -1
			bestScore := -1
			for i := 0; i < n; i++ {
				if !cand(i) {
					continue
				}
				score := 0
				for _, av := range argVars[i] {
					grounded := true
					for _, v := range av {
						if !bound[v] {
							grounded = false
							break
						}
					}
					if grounded {
						score++
					}
				}
				if score > bestScore {
					bestScore = score
					staticBest = i
				}
			}
			chosen = staticBest
			// With a single remaining candidate there is nothing to rank;
			// skip the cost loop (small programs plan often — every round
			// of every fixpoint — so the constant matters).
			if db != nil && staticBest >= 0 && posLeft > 1 {
				best := -1
				var bestEst, bestN int64
				bestCols, bestInt := -1, -1
				for i := 0; i < n; i++ {
					if !cand(i) {
						continue
					}
					a := compileAccess(body[i], argVars[i], bound, false)
					est, card := estimate(db, body[i].Pred, a.cols, len(body[i].Args))
					if est > 0 && typedPrune(body[i]) {
						// Typing proves this literal matches nothing: running
						// it first short-circuits the whole join.
						est = 0
					}
					ik := intBound(body[i], a.cols)
					better := best < 0 ||
						est < bestEst ||
						(est == bestEst && (len(a.cols) > bestCols ||
							(len(a.cols) == bestCols && (ik > bestInt ||
								(ik == bestInt && card < bestN)))))
					if better {
						best, bestEst, bestCols, bestInt, bestN = i, est, len(a.cols), ik, card
					}
				}
				if best != staticBest {
					p.reordered = true
				}
				chosen = best
			}
		}
		if chosen < 0 {
			var rest []ast.Literal
			for i := 0; i < n; i++ {
				if !used[i] {
					rest = append(rest, body[i])
				}
			}
			return nil, &FlounderError{Rule: r, Lits: rest}
		}
		take(chosen)
	}
	return p, nil
}
