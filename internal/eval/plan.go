// Package eval implements the bottom-up operational semantics of §3.2: the
// R(M) operator, grouping by ≡-equivalence classes, stratified negation,
// and naive and semi-naive fixpoint evaluation layer by layer (Theorem 1).
package eval

import (
	"fmt"
	"slices"
	"sync/atomic"

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
// happen for plans the ordering produced).
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

// probe appends to buf the probe value of every column in cols, evaluated
// under b, and returns them.  The error of a value that cannot be
// evaluated is returned as is; unify.ErrOutsideU means the probe matches
// nothing.
func (a *access) probe(b *unify.Bindings, buf []term.Term) ([]term.Term, error) {
	for _, key := range a.keys {
		v, err := key(b)
		if err != nil {
			return nil, err
		}
		buf = append(buf, v)
	}
	return buf, nil
}

// bodyPlan is a compiled rule body: the literal execution order plus the
// access path of each step (acc is parallel to order).  It is an entry of
// its shape's memo, immutable once published.
type bodyPlan struct {
	order []int
	acc   []access
	next  *bodyPlan // the memo entry published before this one
}

// shape is what planning a body reads of the rule alone, built once per
// variant.  Its memo holds the plan of every join order chosen for it, so a
// round that re-decides the order against the live database builds nothing
// unless the order is new.  Every evaluation and view of a program shares
// it.
type shape struct {
	rule ast.Rule      // the source rule
	body []ast.Literal // rule.Body, or maintenance's variant of it
	dLit int           // scheduled as soon as it is a candidate; -1: none
	pre  []term.Var    // bound on entry
	// argVars[i][j] lists the variables of argument j of body literal i;
	// isDB[i] marks a positive database literal.  memo lists the plans
	// compiled, newest first; nil when planned once (CompileBody).
	argVars [][][]term.Var
	isDB    []bool
	memo    *atomic.Pointer[bodyPlan]
}

// newVariant returns the variant of rule r evaluating head from body (r's, or
// maintenance's variant of it), dLit forced first (-1: none), pre bound.
func newVariant(r ast.Rule, head ast.Literal, body []ast.Literal, dLit int, pre map[term.Var]bool) *Variant {
	v := &Variant{shape: shape{memo: new(atomic.Pointer[bodyPlan])}}
	v.init(r, head, body, dLit, pre)
	return v
}

// init is newVariant on a variant the caller allocated.
func (v *Variant) init(r ast.Rule, head ast.Literal, body []ast.Literal, dLit int, pre map[term.Var]bool) {
	v.rule, v.head, v.body, v.dLit = r, head, body, dLit
	for x := range pre {
		v.pre = append(v.pre, x)
	}
	v.argVars, v.isDB = make([][][]term.Var, len(body)), make([]bool, len(body))
	for i, l := range body {
		av := make([][]term.Var, len(l.Args))
		for j, a := range l.Args {
			av[j] = term.VarsOf(a)
		}
		v.argVars[i], v.isDB[i] = av, !l.Negated && !layering.IsBuiltin(l.Pred)
	}
}

// bind adds the variables of one literal's arguments to bound.
func bind(bound []term.Var, argVars [][]term.Var) []term.Var {
	for _, av := range argVars {
		for _, v := range av {
			if !slices.Contains(bound, v) {
				bound = append(bound, v)
			}
		}
	}
	return bound
}

// Plan is the public view of a compiled body plan, used by the magic-sets
// compiler (§6) to derive sideways information passing: the execution
// order plus, for each body literal (by original body position), the
// argument columns that are ground when it executes.  Plans compiled
// against a database additionally carry the cost model's per-step
// candidate estimates.
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
// per-literal bound-column analysis.  A nil db gives the static order,
// data-independent, so magic-set sips and analysis diagnostics are stable
// across databases; a non-nil db schedules by the cost model against its
// live cardinalities (see shape.plan).
func CompileBody(r ast.Rule, forcedFirst int, preBound map[term.Var]bool, db *store.DB) (*Plan, error) {
	var s Variant
	s.init(r, r.Head, r.Body, forcedFirst, preBound)
	p, reordered, err := s.plan(db)
	if err != nil {
		return nil, err
	}
	out := &Plan{Order: p.order, BoundCols: make([][]int, len(r.Body)), Reordered: reordered}
	for step, idx := range p.order {
		out.BoundCols[idx] = p.acc[step].cols
	}
	if db != nil {
		out.Est = make([]int64, len(p.order))
		s.estimates(p, db, out.Est)
	}
	return out, nil
}

// compileAccess records which argument columns of l are ground given the
// bound variables, compiling a key extractor per column when withKeys is
// set (positive database literals — the only ones that probe a store
// relation).  argVars carries the variable list of each argument (parallel
// to l.Args).
func compileAccess(l ast.Literal, argVars [][]term.Var, bound []term.Var, withKeys bool) access {
	var a access
	for col, arg := range l.Args {
		if !ground(argVars[col], bound) {
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

// ground reports whether every variable of one argument is bound.
func ground(vars []term.Var, bound []term.Var) bool {
	for _, v := range vars {
		if !slices.Contains(bound, v) {
			return false
		}
	}
	return true
}

// plan orders the shape's body for left-to-right join execution against db
// and returns the plan of that order from the memo, compiling it on a miss;
// reordered reports that the cost model departed from the static choice at
// some step.  A memo hit allocates nothing (up to 16 literals over 32
// variables) unless a built-in's readiness test does.  At each step the
// ordering prefers, among the remaining literals:
//
//  1. fully bound tests (negated literals, test-mode built-ins) — cheapest,
//  2. built-ins with a satisfiable generator mode,
//  3. positive database literals, most bound arguments first.
//
// A positive database literal is a candidate only once matching it binds
// all its variables (ast.Binds): b(X + 1) waits for X, s(X, {X}) does not.
// The delta literal, if any, is scheduled as soon as it is a candidate —
// first, unless an interpreted argument waits for variables other literals
// bind.
//
// With a database the class-3 choice is cost-based: the literal with the
// smallest estimated candidate count runs next, with ties broken by more
// bound columns, then smaller relation, then source order.  A nil db
// preserves the static most-bound-columns order exactly, which keeps
// magic-set sips, analysis diagnostics, and every plan under
// Options.NoReorder data-independent.
func (s *shape) plan(db *store.DB) (p *bodyPlan, reordered bool, err error) {
	body, n, forced := s.body, len(s.body), s.dLit
	var orderBuf [16]int
	var boundBuf [32]term.Var
	var colBuf [8]int
	order, bound := orderBuf[:0], append(boundBuf[:0], s.pre...)
	used := func(i int) bool { return slices.Contains(order, i) }
	isBound := func(v term.Var) bool { return slices.Contains(bound, v) }
	// dbLeft: i is an unscheduled positive database literal; dbReady: one
	// whose match binds every variable it has.
	dbLeft := func(i int) bool { return !used(i) && s.isDB[i] }
	dbReady := func(i int) bool { return dbLeft(i) && ast.Binds(isBound, body[i].Args...) }
	// boundCols lists the argument columns of literal i ground under bound.
	boundCols := func(i int) []int {
		cols := colBuf[:0]
		for j, av := range s.argVars[i] {
			if ground(av, bound) {
				cols = append(cols, j)
			}
		}
		return cols
	}
	for len(order) < n {
		chosen := -1
		if forced >= 0 && dbReady(forced) {
			chosen, forced = forced, -1
		}
		// Class 1: fully bound tests.
		for i := 0; i < n && chosen < 0; i++ {
			if used(i) || s.isDB[i] {
				continue
			}
			allBound := true
			for _, av := range s.argVars[i] {
				if !ground(av, bound) {
					allBound = false
					break
				}
			}
			if allBound && (!layering.IsBuiltin(body[i].Pred) || builtin.Ready(body[i], isBound)) {
				chosen = i
			}
		}
		// Class 2: ready generator built-ins.
		for i := 0; i < n && chosen < 0; i++ {
			if used(i) || body[i].Negated || !layering.IsBuiltin(body[i].Pred) {
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
				if score := len(boundCols(i)); score > bestScore {
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
				bestCols := -1
				for i := 0; i < n; i++ {
					if !cand(i) {
						continue
					}
					cols := boundCols(i)
					est, card := estimate(db, body[i].Pred, cols, len(body[i].Args))
					better := best < 0 ||
						est < bestEst ||
						(est == bestEst && (len(cols) > bestCols ||
							(len(cols) == bestCols && card < bestN)))
					if better {
						best, bestEst, bestCols, bestN = i, est, len(cols), card
					}
				}
				if best != staticBest {
					reordered = true
				}
				chosen = best
			}
		}
		if chosen < 0 {
			var rest []ast.Literal
			for i := 0; i < n; i++ {
				if !used(i) {
					rest = append(rest, body[i])
				}
			}
			return nil, false, &FlounderError{Rule: s.rule, Lits: rest}
		}
		order = append(order, chosen)
		bound = bind(bound, s.argVars[chosen])
	}
	return s.compile(order), reordered, nil
}

// compile returns the memo's plan of order.  On a miss it builds it — each
// step's access path, from the bindings before it runs — and swaps it in as
// the memo's head, so readers never lock; of two evaluations missing on one
// order at once, the second to publish finds the first's plan and takes it.
func (s *shape) compile(order []int) *bodyPlan {
	var p, head *bodyPlan
	for {
		if s.memo != nil {
			head = s.memo.Load()
		}
		for q := head; q != nil; q = q.next {
			if slices.Equal(q.order, order) {
				return q
			}
		}
		if p == nil {
			p = &bodyPlan{order: slices.Clone(order), acc: make([]access, len(order))}
			var boundBuf [32]term.Var
			bound := append(boundBuf[:0], s.pre...)
			for k, i := range order {
				p.acc[k] = compileAccess(s.body[i], s.argVars[i], bound, s.isDB[i])
				bound = bind(bound, s.argVars[i])
			}
		}
		if s.memo == nil {
			return p
		}
		if p.next = head; s.memo.CompareAndSwap(head, p) {
			plansCompiled.Add(1)
			return p
		}
	}
}

// plansCompiled counts the plans published in memos; tests read it.
var plansCompiled atomic.Int64

// estimates returns the sum of the cost model's per-probe candidate
// estimates for the database steps of p against db, and when est is non-nil
// records each step's in est (0 for built-ins and negated tests).
func (s *shape) estimates(p *bodyPlan, db *store.DB, est []int64) int64 {
	var sum int64
	for k, i := range p.order {
		if s.isDB[i] {
			e, _ := estimate(db, s.body[i].Pred, p.acc[k].cols, len(s.body[i].Args))
			sum += e
			if est != nil {
				est[k] = e
			}
		}
	}
	return sum
}
