package eval

import (
	"context"
	"fmt"
	"slices"

	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Strategy selects the fixpoint algorithm within a layer.
type Strategy int

// Evaluation strategies.
const (
	// SemiNaive evaluates recursive rules against delta relations
	// (facts new in the previous iteration), the standard optimisation
	// of the naive R_i(M) iteration.
	SemiNaive Strategy = iota
	// Naive re-applies every rule to the whole database each iteration,
	// the literal R_{i+1}(M) = ∪ r(R_i(M)) ∪ R_i(M) of §3.2.
	Naive
)

// Stats collects the counters of evaluation and of incremental maintenance
// (internal/incr), which fire rules through the same driver.
type Stats struct {
	// Iterations counts inner fixpoint iterations across all layers, and
	// the cascade rounds of maintenance.
	Iterations int
	// Derived counts facts newly added by rule application — by
	// maintenance too, where a transaction's own EDB facts do not count.
	Derived int
	// Firings counts successful rule-body solutions (including ones
	// whose head fact already existed), the regrouping and rederivation
	// enumerations of maintenance included.
	Firings int
	// IndexHits counts candidate probes answered by a (possibly
	// composite) column hash index on the compiled access path.
	IndexHits int
	// FullScans counts candidate scans that enumerated a relation: the
	// plan had no ground column for the literal, or the relation was
	// below store.IndexThreshold.
	FullScans int
	// DeletedOverestimate counts facts removed by the delete-and-rederive
	// overestimation step of incremental maintenance (internal/incr).
	DeletedOverestimate int
	// Rederived counts overestimated deletions resurrected because an
	// alternative derivation survived the transaction.
	Rederived int
	// RegroupedClasses counts ≡-equivalence classes of grouping rules
	// invalidated and regrouped by incremental maintenance.
	RegroupedClasses int
	// PlansReordered counts compiled body plans where the cost model chose
	// a different join order than the static most-bound-columns heuristic.
	PlansReordered int
	// EstimatedRows sums the cost model's per-step candidate estimates over
	// all compiled plans — the planner's view of how much work it scheduled.
	EstimatedRows int64
	// CacheHits counts engine queries answered from the answer cache
	// without any evaluation.
	CacheHits int
}

// Merge adds the counters of other into s.
func (s *Stats) Merge(other *Stats) {
	if s == nil || other == nil {
		return
	}
	s.Iterations += other.Iterations
	s.Derived += other.Derived
	s.Firings += other.Firings
	s.IndexHits += other.IndexHits
	s.FullScans += other.FullScans
	s.DeletedOverestimate += other.DeletedOverestimate
	s.Rederived += other.Rederived
	s.RegroupedClasses += other.RegroupedClasses
	s.PlansReordered += other.PlansReordered
	s.EstimatedRows += other.EstimatedRows
	s.CacheHits += other.CacheHits
}

// Options configures evaluation.
type Options struct {
	Strategy Strategy
	Stats    *Stats
	// Ctx, when non-nil, is checked at every fixpoint round boundary and
	// polled (cheaply, every few hundred firings) inside long joins: a
	// canceled context aborts evaluation promptly with lderr.Canceled (or
	// lderr.DeadlineExceeded after a deadline).  The abort is clean — the
	// input database of Eval is never mutated, and EvalGroups callers
	// discard the partially evaluated working database on error.
	Ctx context.Context
	// MemBudget, when positive, bounds the approximate bytes retained by
	// DERIVED facts (the input database is free) and aborts evaluation
	// with lderr.MemBudgetError beyond it — a resource guard complementing
	// MaxDerived for programs that derive few but enormous terms.
	MemBudget int64
	// Provenance, when non-nil, records a Derivation for every fact the
	// evaluation adds (including program facts), enabling Explain.
	Provenance *Provenance
	// MaxDerived, when positive, bounds the number of DERIVED facts —
	// facts newly added by rule application, not counting the input
	// database — and aborts evaluation with a LimitError once more than
	// MaxDerived facts have been derived.  The count and the semantics
	// are identical for sequential and parallel evaluation (with Workers > 1
	// a round's facts are inserted, and counted, once its tasks are done).
	// Useful as a termination guard for programs whose function symbols
	// can generate unbounded terms (the LDL1 universe U is infinite).
	MaxDerived int
	// Workers, when > 1, evaluates the rule applications of each fixpoint
	// round concurrently (derivations are buffered per task and replayed
	// in task order between rounds, so the computed model is unchanged and
	// its relation order is the same for every Workers > 1).  Ignored when
	// Provenance is set.
	Workers int
	// NoReorder disables the cost-based join planner and falls back to the
	// static most-bound-columns literal order — the ablation switch for
	// benchmarks and for reproducing pre-cost plans.  The computed model is
	// identical either way; only the join schedule differs.
	NoReorder bool
	// Types, when non-nil, is the program's inferred type environment
	// (internal/analyze/types).  The cost-based planner uses it to price
	// statically impossible probes at zero and to prefer int-keyed index
	// paths on ties.  The computed model is unchanged — typing only informs
	// the join schedule.  Ignored under NoReorder.
	Types *types.Env
}

// LimitError reports that evaluation exceeded Options.MaxDerived.  It is
// an alias of lderr.LimitError, the engine-wide error taxonomy type.
type LimitError = lderr.LimitError

// Eval computes the standard minimal model M_n of the admissible program P
// with respect to the U-facts in edb (Theorem 1): facts are added to a clone
// of edb, then each layer L_i is evaluated to its fixpoint M_i = L_i(M_{i-1}).
// The input database is not modified, and the caller may go on writing it:
// the model does not see it.
func Eval(p *ast.Program, edb *store.DB, opts Options) (*store.DB, error) {
	if err := ast.CheckWellFormed(p); err != nil {
		return nil, err
	}
	lay, err := layering.Stratify(p)
	if err != nil {
		return nil, err
	}
	db := edb.Clone()
	if err := EvalGroups(lay.Rules, db, opts); err != nil {
		return nil, err
	}
	return db, nil
}

// EvalGroups evaluates rule groups in order, each to its fixpoint, against
// db (mutated in place).  Facts from every group are inserted first.  This
// is the layer-by-layer engine behind Eval; the magic-sets evaluator uses
// it directly with its own (non-admissible) group assignment, so no
// admissibility check is performed here.
func EvalGroups(groups [][]ast.Rule, db *store.DB, opts Options) error {
	return EvalGroupsEach(groups, db, opts, nil)
}

// EvalGroupsEach is EvalGroups reporting progress: after(i), when non-nil,
// runs once group i has reached its fixpoint and before group i+1 starts,
// all under the one set of budgets and counters of the call.
func EvalGroupsEach(groups [][]ast.Rule, db *store.DB, opts Options, after func(group int)) error {
	for _, rules := range groups {
		for _, r := range rules {
			if !r.IsFact() {
				continue
			}
			f, err := unify.ApplyLit(r.Head, unify.NewBindings())
			if err != nil {
				return fmt.Errorf("fact %q: %w", r.Head.String(), err)
			}
			if db.Insert(f) && opts.Provenance != nil {
				opts.Provenance.record(&Derivation{Fact: f})
			}
		}
	}
	d := NewDriver(opts.Ctx, opts.Stats, opts.Workers, opts.MaxDerived)
	d.memBudget = opts.MemBudget
	if opts.Provenance != nil {
		// The derivation trail is per-join state a replay cannot rebuild.
		d.workers, d.x.prov = 1, opts.Provenance
	}
	d.live = d.workers <= 1
	defer d.flush(&d.x)
	ev := &evaluation{Driver: d, db: db, noReorder: opts.NoReorder, types: opts.Types}
	for i, rules := range groups {
		if err := d.Err(); err != nil {
			return err
		}
		if err := ev.evalLayer(rules, opts.Strategy); err != nil {
			return err
		}
		if after != nil {
			after(i)
		}
	}
	return nil
}

// evaluation is one EvalGroupsEach call: the driver, the database being
// completed, and what the planner needs.
type evaluation struct {
	*Driver
	db *store.DB
	// noReorder pins the static literal order; see Options.NoReorder.
	noReorder bool
	// types, when non-nil, refines cost-based planning; see Options.Types.
	types *types.Env
}

// Probe and Accept make the evaluation its own sink: a head fact absent
// from the database is inserted, charged and counted as derived.  A live
// round has the database to itself, so there the first firing of a rule
// creates its head relation (a derived predicate is part of the model even
// when no fact of it is), or the private copy of one a clone shares.
func (ev *evaluation) Probe(pred string) (*store.Relation, bool) {
	if ev.live {
		return ev.db.Rel(pred), false
	}
	return ev.db.RelOrNil(pred), false
}

func (ev *evaluation) Accept(f *term.Fact) (bool, error) {
	if !ev.db.Insert(f) {
		return false, nil
	}
	if ev.stats != nil {
		ev.stats.Derived++
	}
	return true, ev.Charge(f)
}

// variant compiles the rule with body literal dLit first (-1: no delta
// literal) against ev.db: cost-based by default, static under
// Options.NoReorder.  Planner decisions are charged to the stats sink here —
// plans are always compiled on the driving goroutine.
func (ev *evaluation) variant(r ast.Rule, dLit int) (*Variant, error) {
	db := ev.db
	if ev.noReorder {
		db = nil
	}
	p, err := planBodyDB(r, dLit, nil, db, ev.types)
	if err != nil {
		return nil, err
	}
	if ev.stats != nil {
		if p.reordered {
			ev.stats.PlansReordered++
		}
		ev.stats.EstimatedRows += p.estRows
	}
	return &Variant{rule: r, head: r.Head, body: r.Body, plan: p, dLit: dLit}, nil
}

// replan refreshes the cost-based plans of the variants on geometrically
// spaced rounds (1, 2, 4, 8, ...).  Cost-based plans are data-dependent, and
// the relations of a layer grow as its fixpoint runs: a plan compiled when a
// recursive relation held one seed tuple would keep scanning it first long
// after it outgrew every alternative.  Relations grow monotonically within a
// layer, so any growth-induced plan flip is picked up within a factor-2
// window of rounds at O(log rounds) replanning cost.  Only bodies that offer
// a choice — at least two positive database literals besides the delta
// occurrence — are recompiled; static plans (NoReorder) are data-independent
// and kept.
func (ev *evaluation) replan(vars []*Variant) func(round int) (bool, error) {
	next := 1
	return func(round int) (bool, error) {
		if ev.noReorder || round != next {
			return true, nil
		}
		next *= 2
		for _, v := range vars {
			n := 0
			for i, l := range v.body {
				if i != v.dLit && !l.Negated && !layering.IsBuiltin(l.Pred) {
					n++
				}
			}
			if n < 2 {
				continue
			}
			nv, err := ev.variant(v.rule, v.dLit)
			if err != nil {
				return false, err
			}
			v.plan = nv.plan
		}
		return true, nil
	}
}

// evalLayer computes the fixpoint of one layer: grouping rules are applied
// once against the layer input (their bodies mention only lower layers, see
// Lemma 3.2.3), then the remaining rules run to fixpoint.
func (ev *evaluation) evalLayer(rules []ast.Rule, strat Strategy) error {
	var simple []ast.Rule
	for _, r := range rules {
		switch {
		case r.IsFact(): // already inserted
		case r.IsGroupingRule():
			if err := ev.applyGroupingRule(r); err != nil {
				return err
			}
		default:
			simple = append(simple, r)
		}
	}
	if len(simple) == 0 {
		return nil
	}
	if strat == Naive {
		return ev.naiveFixpoint(simple)
	}
	return ev.semiNaiveFixpoint(simple)
}

// naiveFixpoint re-fires every rule against the whole database until a
// round inserts nothing — the reference the other strategies are tested
// against.
func (ev *evaluation) naiveFixpoint(rules []ast.Rule) error {
	vars := make([]*Variant, len(rules))
	tasks := make([]Task, len(rules))
	for i, r := range rules {
		v, err := ev.variant(r, -1)
		if err != nil {
			return err
		}
		vars[i], tasks[i] = v, v.Task(ev.db, nil)
	}
	replan := ev.replan(vars)
	for round := 1; ; round++ {
		if err := ev.Err(); err != nil {
			return err
		}
		ev.bumpIter()
		if _, err := replan(round); err != nil {
			return err
		}
		before := ev.derived
		if err := ev.Round(tasks, ev, nil); err != nil {
			return err
		}
		if ev.derived == before {
			return nil
		}
	}
}

// semiNaiveFixpoint fires every rule once against the whole database, then
// cascades: each further round fires only the variants of recursive rules
// whose delta literal — a body occurrence of a predicate defined in this
// layer — has facts new in the previous round.
func (ev *evaluation) semiNaiveFixpoint(rules []ast.Rule) error {
	layerPreds := map[string]bool{}
	for _, r := range rules {
		layerPreds[r.Head.Pred] = true
	}
	var recvars []*Variant
	// Round 0 fires every rule exactly once, non-recursive rules first.
	var base, rec []Task
	for _, r := range rules {
		n := len(recvars)
		for i, l := range r.Body {
			if !l.Negated && layerPreds[l.Pred] {
				v, err := ev.variant(r, i)
				if err != nil {
					return err
				}
				recvars = append(recvars, v)
			}
		}
		v, err := ev.variant(r, -1)
		if err != nil {
			return err
		}
		if len(recvars) > n {
			rec = append(rec, v.Task(ev.db, nil))
		} else {
			base = append(base, v.Task(ev.db, nil))
		}
	}
	ev.bumpIter()
	fr := NewFrontier(ev.db.UseIndexes)
	if err := ev.Round(append(base, rec...), ev, fr); err != nil {
		return err
	}
	return ev.Cascade(fr, recvars, ev.db, ev, ev.replan(recvars))
}

// Solve evaluates a conjunctive query body against a database, returning
// its answer table: one row per distinct solution, one column per entry of
// Columns(body), rows in CompareRows order.  A column is nil where no
// positive literal binds its variable.
func Solve(body []ast.Literal, db *store.DB) ([][]term.Term, error) {
	return SolveCtx(nil, body, db)
}

// Columns lists the answer columns of a query body: its variables in
// first-occurrence order, anonymous ones left out.
func Columns(body []ast.Literal) []term.Var {
	return slices.DeleteFunc(ast.Rule{Body: body}.Vars(), term.Var.Anonymous)
}

// CompareRows is the total order of answer rows: column by column, an
// unbound (nil) column first, bound ones by term.Compare.
func CompareRows(a, b []term.Term) int {
	return slices.CompareFunc(a, b, func(x, y term.Term) int {
		switch {
		case x == nil && y == nil:
			return 0
		case x == nil:
			return -1
		case y == nil:
			return 1
		}
		return term.Compare(x, y)
	})
}

// SolveLimits bounds one Solve enumeration; the zero value imposes no
// bounds.  Breaches abort with the same taxonomy errors the fixpoint
// guards return, so callers (the server's per-request limits) branch on
// one vocabulary.
type SolveLimits struct {
	// MaxSolutions > 0 aborts the enumeration with *lderr.LimitError once
	// more than that many distinct solutions exist.
	MaxSolutions int
	// MemBudget > 0 aborts with *lderr.MemBudgetError once the terms of the
	// retained rows exceed approximately that many bytes (the same
	// structural estimate Options.MemBudget uses for derived facts).
	MemBudget int64
}

// SolveCtx is Solve under a context: the enumeration polls ctx and aborts
// with lderr.Canceled / lderr.DeadlineExceeded when it is done.  A nil ctx
// disables the polling.
func SolveCtx(ctx context.Context, body []ast.Literal, db *store.DB) ([][]term.Term, error) {
	return SolveLimitsCtx(ctx, body, db, SolveLimits{})
}

// SolveLimitsCtx is SolveCtx under per-call resource bounds.
func SolveLimitsCtx(ctx context.Context, body []ast.Literal, db *store.DB, lim SolveLimits) ([][]term.Term, error) {
	r := ast.Rule{Head: ast.NewLit("$query"), Body: body}
	p, err := planBodyDB(r, -1, nil, db, nil)
	if err != nil {
		return nil, err
	}
	x := &Exec{b: &budget{ctx: ctx}}
	// One up-front check makes a done context fail even when the
	// enumeration is too short to reach the in-join polling stride.
	if err := x.b.Err(); err != nil {
		return nil, err
	}
	cols := Columns(body)
	t := rowTable{width: len(cols), distinct: distinctRows(body)}
	var solBytes int64
	b := unify.NewBindings()
	err = x.heads(&Variant{body: body, plan: p, dLit: -1}, db, nil, b, func([]term.Term) error {
		row := t.tail()
		for i, v := range cols {
			row[i], _ = b.Lookup(v)
		}
		if !t.keep(row) {
			return nil
		}
		if lim.MaxSolutions > 0 && t.n > lim.MaxSolutions {
			return &LimitError{Limit: lim.MaxSolutions}
		}
		if lim.MemBudget > 0 {
			for _, c := range row {
				if c != nil {
					solBytes += 48 + termBytes(c)
				}
			}
			if solBytes > lim.MemBudget {
				return &lderr.MemBudgetError{Budget: lim.MemBudget}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t.rows(), nil
}

// distinctRows reports whether every solution of body is a row of its own:
// one positive database literal whose arguments are ground or named
// variables matches each stored fact once, and two facts it matches differ
// at a variable position, so in a column.
func distinctRows(body []ast.Literal) bool {
	if len(body) != 1 || body[0].Negated || layering.IsBuiltin(body[0].Pred) {
		return false
	}
	for _, a := range body[0].Args {
		if v, isVar := a.(term.Var); isVar && v.Anonymous() || !isVar && !term.IsGround(a) {
			return false
		}
	}
	return true
}

// rowTable collects the distinct rows of one Solve back to back in one flat
// slice.  slots is an open-addressed set of row numbers plus one (0 marks
// a free slot) over hashes, at most half full; it stays empty when every
// solution is known to be a distinct row.
type rowTable struct {
	width, n int
	distinct bool
	flat     []term.Term
	hashes   []uint64
	slots    []int32
}

// row returns kept row i.
func (t *rowTable) row(i int) []term.Term {
	return t.flat[i*t.width : (i+1)*t.width : (i+1)*t.width]
}

// tail returns the row after the kept ones, for the caller to fill in.
func (t *rowTable) tail() []term.Term {
	t.flat = slices.Grow(t.flat[:t.n*t.width], t.width)[:(t.n+1)*t.width]
	return t.row(t.n)
}

// keep keeps the filled-in tail row unless an equal row is already kept.
func (t *rowTable) keep(row []term.Term) bool {
	if !t.distinct {
		h := term.HashSeed
		for _, c := range row {
			var ch uint64 // an unbound column
			if c != nil {
				ch = c.Hash()
			}
			h = term.HashFold(h, ch)
		}
		if 2*(t.n+1) > len(t.slots) {
			t.rehash(max(16, 2*len(t.slots)))
		}
		i := int(h) & (len(t.slots) - 1)
		for ; t.slots[i] != 0; i = (i + 1) & (len(t.slots) - 1) {
			if r := int(t.slots[i]) - 1; t.hashes[r] == h && CompareRows(t.row(r), row) == 0 {
				return false
			}
		}
		t.slots[i] = int32(t.n + 1)
		t.hashes = append(t.hashes, h)
	}
	t.n++
	return true
}

// rehash rebuilds slots at the given power-of-two size.
func (t *rowTable) rehash(size int) {
	t.slots = make([]int32, size)
	for r, h := range t.hashes {
		i := int(h) & (size - 1)
		for t.slots[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		t.slots[i] = int32(r + 1)
	}
}

// rows cuts the kept rows out of the flat slice, sorted by CompareRows.
func (t *rowTable) rows() [][]term.Term {
	out := make([][]term.Term, t.n)
	for i := range out {
		out[i] = t.row(i)
	}
	slices.SortFunc(out, CompareRows)
	return out
}
