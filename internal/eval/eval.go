package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

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
// (internal/incr), which fire rules through the same driver.  Its json keys
// are those of the eval object of the server's /stats.
type Stats struct {
	// Iterations counts inner fixpoint iterations across all layers, and
	// the cascade rounds of maintenance.
	Iterations int `json:"iterations"`
	// Derived counts facts newly added by rule application — by
	// maintenance too, where a transaction's own EDB facts do not count.
	Derived int `json:"derived"`
	// Firings counts successful rule-body solutions (including ones
	// whose head fact already existed), the regrouping and rederivation
	// enumerations of maintenance included.
	Firings int `json:"firings"`
	// IndexHits counts candidate probes answered by a (possibly
	// composite) column hash index on the compiled access path.
	IndexHits int `json:"index_hits"`
	// FullScans counts candidate scans that enumerated a relation: the
	// plan had no ground column for the literal, or the relation was
	// below store.IndexThreshold.
	FullScans int `json:"full_scans"`
	// DeletedOverestimate counts facts removed by the delete-and-rederive
	// overestimation step of incremental maintenance (internal/incr).
	DeletedOverestimate int `json:"deleted_overestimate"`
	// Rederived counts overestimated deletions resurrected because an
	// alternative derivation survived the transaction.
	Rederived int `json:"rederived"`
	// RegroupedClasses counts ≡-equivalence classes of grouping rules
	// invalidated and regrouped by incremental maintenance.
	RegroupedClasses int `json:"regrouped_classes"`
	// PlansReordered counts compiled body plans where the cost model chose
	// a different join order than the static most-bound-columns heuristic.
	PlansReordered int `json:"plans_reordered"`
	// EstimatedRows sums the cost model's per-step candidate estimates over
	// all compiled plans — the planner's view of how much work it scheduled.
	EstimatedRows int64 `json:"estimated_rows"`
	// CacheHits counts engine queries answered from the answer cache
	// without any evaluation.
	CacheHits int `json:"cache_hits"`
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

// Options configures evaluation.  None of it describes the program: the
// planner orders each body from the rule and the database alone.
type Options struct {
	Strategy Strategy
	Stats    *Stats
	// Ctx, when non-nil, is checked at every fixpoint round boundary and
	// polled (cheaply, every few hundred firings) inside long joins: a
	// canceled context aborts evaluation promptly with lderr.Canceled (or
	// lderr.DeadlineExceeded after a deadline).  The abort is clean — the
	// input database of Eval is never mutated, and Program.Run callers
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
	// database — and aborts evaluation with *lderr.LimitError once more than
	// MaxDerived facts have been derived.  Useful as a termination guard
	// for programs whose function symbols can generate unbounded terms (the
	// LDL1 universe U is infinite).
	MaxDerived int
	// NoReorder disables the cost-based join planner and falls back to the
	// static most-bound-columns literal order, in evaluation and
	// maintenance alike — the ablation switch for benchmarks and for
	// reproducing pre-cost plans.  The computed model is identical either
	// way; only the join schedule differs.
	NoReorder bool
}

// Eval computes the standard minimal model M_n of the admissible program P
// with respect to the U-facts in edb (Theorem 1): Admit, then Run on a clone
// of edb.  The input database is not modified, and the caller may go on
// writing it: the model does not see it.
func Eval(p *ast.Program, edb *store.DB, opts Options) (*store.DB, error) {
	prog, err := Admit(p)
	if err != nil {
		return nil, err
	}
	db := edb.Clone()
	if err := prog.Run(db, opts, nil); err != nil {
		return nil, err
	}
	return db, nil
}

// Admit is the one admission of a program: it checks that p is well formed
// (§2.1, §7) and admissible (§3.1), layers it one strongly connected
// component per layer (layering.Stratify) and compiles the layers.  The
// Program keeps its layering; evaluation (Run) and maintenance
// (internal/incr) both run it.
func Admit(p *ast.Program) (*Program, error) {
	if err := ast.CheckWellFormed(p); err != nil {
		return nil, err
	}
	lay, err := layering.Stratify(p)
	if err != nil {
		return nil, err
	}
	prog, err := Compile(lay.Rules)
	if err != nil {
		return nil, err
	}
	prog.lay = lay
	return prog, nil
}

// Program is rule groups compiled: what Run and maintenance (internal/incr)
// derive from the rules alone — the facts, and each non-fact rule as one
// Rule whose variants' shapes' memos fill as evaluations and transactions
// choose join orders.  The memos publish safely, so one Program serves any
// number of concurrent Run calls and views.
type Program struct {
	facts  []*term.Fact // every group's facts, each evaluated once
	layers []Layer
	lay    *layering.Layering // the groups' layering, under Admit
}

// Facts returns the facts of the program text, evaluated (§2.2: 2+2 is 4);
// the caller must not write to them.
func (prog *Program) Facts() []*term.Fact { return prog.facts }

// WithFacts returns the program with fs in place of its facts; the two share
// their compiled rules and layering.
func (prog *Program) WithFacts(fs []*term.Fact) *Program {
	c := *prog
	c.facts = fs
	return &c
}

// Layering returns the layering Admit grouped the program by: one layer per
// group.  Nil for a Program built by Compile.
func (prog *Program) Layering() *layering.Layering { return prog.lay }

// Layer returns compiled group i.
func (prog *Program) Layer(i int) *Layer { return &prog.layers[i] }

// Layer is one rule group compiled.
type Layer struct {
	// Grouping are the group's grouping rules, applied once on entry; Simple
	// the others, each in source order.
	Grouping, Simple []*Rule
	// Feeds are the delta variants of Simple whose delta literal is a
	// positive occurrence of a predicate Simple defines, in rule and literal
	// order: what a cascade within the group fires, in evaluation and
	// maintenance alike.
	Feeds *Feeds
	// vars are the base variants of Simple, then the variants of Feeds; they
	// number an evaluation's plan slice (Variant.slot).  round0 is the base
	// variants, non-recursive ones first.
	vars, round0 []*Variant
}

// Rule is one non-fact rule compiled: every variant evaluation and
// maintenance fire of it.
type Rule struct {
	Rule ast.Rule

	// base executes the body as written.
	base *Variant
	// delta[j] executes the body with literal j first, bound to a delta
	// relation.  For a negated literal j it runs the positive variant of
	// the body: maintenance enumerates the facts whose appearance killed —
	// or whose disappearance enabled — the negated condition.  nil for
	// built-in literals (they never change).
	delta []*Variant
	// bound executes the body with the head variables pre-bound: the
	// rederivation variant of a simple rule, the per-class recompute of a
	// grouping rule (non-grouped head variables only).
	bound *Variant

	// headMatchable reports that every head argument is an invertible
	// pattern, so Derives can seed bindings by matching the head against
	// the candidate fact.  False (e.g. arithmetic in the head) falls back
	// to full enumeration with head comparison.
	headMatchable bool

	// Grouping: gIdx is the head's group-argument position (-1 for simple
	// rules); enumerations yield the grouped variable's value — the ≡-class
	// element, not a set — at that position.  classBindable reports that
	// every non-grouped head argument is a plain variable, so one class can
	// be recomputed from its key bindings alone.
	gIdx          int
	classBindable bool
}

// Compile compiles rule groups for Run and maintenance.  Groups run in
// order, each to its fixpoint; no admissibility check is performed, so the
// magic-sets evaluator compiles its own (non-admissible) group assignment
// with it.  Each fact is evaluated here, once: a fact outside U (p(1/0).)
// is an error of the program.
func Compile(groups [][]ast.Rule) (*Program, error) {
	prog := &Program{layers: make([]Layer, len(groups))}
	for g, rules := range groups {
		l := &prog.layers[g]
		heads := map[string]bool{}
		for _, r := range rules {
			if !r.IsFact() && !r.IsGroupingRule() {
				heads[r.Head.Pred] = true
			}
		}
		var base, rec, deltas []*Variant
		for _, r := range rules {
			if r.IsFact() {
				f, err := unify.ApplyLit(r.Head, unify.NewBindings())
				if err != nil {
					return nil, fmt.Errorf("fact %q: %w", r.Head.String(), err)
				}
				prog.facts = append(prog.facts, f)
				continue
			}
			cr, err := compileRule(r)
			if err != nil {
				return nil, err
			}
			if r.IsGroupingRule() {
				l.Grouping = append(l.Grouping, cr)
				continue
			}
			l.Simple, l.vars = append(l.Simple, cr), append(l.vars, cr.base)
			n := len(deltas)
			for j, lit := range r.Body {
				if !lit.Negated && heads[lit.Pred] {
					deltas = append(deltas, cr.delta[j])
				}
			}
			if len(deltas) > n {
				rec = append(rec, cr.base)
			} else {
				base = append(base, cr.base)
			}
		}
		l.vars = append(l.vars, deltas...)
		l.round0, l.Feeds = append(base, rec...), NewFeeds(deltas)
		for i, v := range l.vars {
			v.slot = i
		}
	}
	return prog, nil
}

// compileRule compiles one non-fact rule.
func compileRule(r ast.Rule) (*Rule, error) {
	gIdx, head, err := groupHead(r)
	if err != nil {
		return nil, err
	}
	cr := &Rule{Rule: r, gIdx: gIdx, base: newVariant(r, head, r.Body, -1, nil)}
	if gIdx >= 0 {
		cr.classBindable = true
		for i, a := range r.Head.Args {
			if _, ok := a.(term.Var); i != gIdx && !ok {
				cr.classBindable = false
			}
		}
	} else {
		cr.headMatchable = !slices.ContainsFunc(r.Head.Args, func(a term.Term) bool { return !matchablePattern(a) })
	}
	cr.delta = make([]*Variant, len(r.Body))
	for j, l := range r.Body {
		if layering.IsBuiltin(l.Pred) {
			continue
		}
		body := r.Body
		if l.Negated {
			body = slices.Clone(r.Body)
			body[j] = l.Positive()
		}
		cr.delta[j] = newVariant(r, head, body, j, nil)
	}
	pre := map[term.Var]bool{}
	for i, a := range r.Head.Args {
		if i != gIdx {
			for _, v := range term.VarsOf(a) {
				pre[v] = true
			}
		}
	}
	cr.bound = newVariant(r, head, r.Body, -1, pre)
	return cr, nil
}

// Run evaluates the compiled groups in order, each to its fixpoint, against
// db (mutated in place).  Facts from every group are inserted first.
// after(i), when non-nil, runs once group i has reached its fixpoint and
// before group i+1 starts, all under the one set of budgets and counters of
// the call.
func (prog *Program) Run(db *store.DB, opts Options, after func(group int)) error {
	for _, f := range prog.facts {
		if db.Insert(f) && opts.Provenance != nil {
			opts.Provenance.record(&Derivation{Fact: f})
		}
	}
	d := NewDriver(opts)
	defer d.flush(&d.x)
	ev := &evaluation{Driver: d, db: db}
	for i := range prog.layers {
		if err := d.Err(); err != nil {
			return err
		}
		if err := ev.evalLayer(&prog.layers[i], opts.Strategy); err != nil {
			return err
		}
		if after != nil {
			after(i)
		}
	}
	return nil
}

// evaluation is one Program.Run call: the driver and the database being
// completed.
type evaluation struct {
	*Driver
	db *store.DB
}

// Probe and Accept make the evaluation its own sink: a head fact absent
// from the database is inserted, charged and counted as derived.  The
// evaluation has the database to itself, so the first firing of a rule
// creates its head relation (a derived predicate is part of the model even
// when no fact of it is), or the private copy of one a clone shares.
func (ev *evaluation) Probe(pred string) (*store.Relation, bool) {
	return ev.db.Rel(pred), false
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

// plan orders the variant's body against ev.db — cost-based by default,
// static under Options.NoReorder — and returns the plan of that order.
// Planner decisions are charged to the stats sink here, per call.
func (ev *evaluation) plan(v *Variant) (*bodyPlan, error) {
	db := ev.x.against(ev.db)
	p, reordered, err := v.plan(db)
	if err != nil {
		return nil, err
	}
	if ev.stats != nil {
		if reordered {
			ev.stats.PlansReordered++
		}
		if db != nil {
			ev.stats.EstimatedRows += v.estimates(p, db, nil)
		}
	}
	return p, nil
}

// planVars orders vars into their slots of plans: all, or under choice those
// with two positive database literals or more besides the delta literal.
func (ev *evaluation) planVars(vars []*Variant, plans []*bodyPlan, choice bool) error {
	for _, v := range vars {
		n := 0
		for i, db := range v.isDB {
			if db && i != v.dLit {
				n++
			}
		}
		if choice && n < 2 {
			continue
		}
		p, err := ev.plan(v)
		if err != nil {
			return err
		}
		plans[v.slot] = p
	}
	return nil
}

// roundTasks returns the round tasks of vars under plans, against ev.db.
func (ev *evaluation) roundTasks(vars []*Variant, plans []*bodyPlan) []Task {
	tasks := ev.Driver.tasks[:0]
	for _, v := range vars {
		tasks = append(tasks, Task{v: v, p: plans[v.slot], db: ev.db})
	}
	ev.Driver.tasks = tasks
	return tasks
}

// replan re-orders the variants on geometrically spaced rounds (1, 2, 4, 8,
// ...), replacing their plans.  Cost-based plans are data-dependent, and
// the relations of a layer grow as its fixpoint runs: a plan chosen when a
// recursive relation held one seed tuple would keep scanning it first long
// after it outgrew every alternative.  Relations grow monotonically within a
// layer, so any growth-induced plan flip is picked up within a factor-2
// window of rounds at O(log rounds) replanning cost; an order chosen before
// is a memo hit, as is every static one (NoReorder).  Only bodies that offer
// a choice are re-ordered.
func (ev *evaluation) replan(vars []*Variant, plans []*bodyPlan) func(round int) (bool, error) {
	next := 1
	return func(round int) (bool, error) {
		if round != next {
			return true, nil
		}
		next *= 2
		err := ev.planVars(vars, plans, true)
		return err == nil, err
	}
}

// evalLayer computes the fixpoint of one layer: grouping rules are applied
// once against the layer input (their bodies mention only lower layers, see
// Lemma 3.2.3), then the remaining rules run to fixpoint under this
// evaluation's plans of the layer's variants.
func (ev *evaluation) evalLayer(l *Layer, strat Strategy) error {
	for _, cr := range l.Grouping {
		if err := ev.applyGroupingRule(cr.base); err != nil {
			return err
		}
	}
	if len(l.Simple) == 0 {
		return nil
	}
	plans := make([]*bodyPlan, len(l.vars))
	if strat == Naive {
		return ev.naiveFixpoint(l.vars[:len(l.Simple)], plans)
	}
	return ev.semiNaiveFixpoint(l, plans)
}

// naiveFixpoint re-fires every rule against the whole database until a
// round inserts nothing — the reference the other strategies are tested
// against.
func (ev *evaluation) naiveFixpoint(rules []*Variant, plans []*bodyPlan) error {
	if err := ev.planVars(rules, plans, false); err != nil {
		return err
	}
	replan := ev.replan(rules, plans)
	for round := 1; ; round++ {
		if err := ev.Err(); err != nil {
			return err
		}
		ev.bumpIter()
		if _, err := replan(round); err != nil {
			return err
		}
		before := ev.derived
		if err := ev.Round(ev.roundTasks(rules, plans), ev, nil); err != nil {
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
func (ev *evaluation) semiNaiveFixpoint(l *Layer, plans []*bodyPlan) error {
	if err := ev.planVars(l.vars, plans, false); err != nil {
		return err
	}
	// Round 0 fires every rule exactly once, non-recursive rules first.
	ev.bumpIter()
	fr := NewFrontier(ev.db.UseIndexes, l.Feeds)
	fr.plans = plans
	if err := ev.Round(ev.roundTasks(l.round0, plans), ev, fr); err != nil {
		return err
	}
	return ev.Cascade(fr, ev.db, ev, ev.replan(l.Feeds.vars, plans))
}

// Columns lists the answer columns of a query body: its variables in
// first-occurrence order, anonymous ones left out.
func Columns(body []ast.Literal) []term.Var {
	return slices.DeleteFunc(ast.Rule{Body: body}.Vars(), term.Var.Anonymous)
}

// CompareRows is the total order of answer rows: column by column, an
// unbound (nil) column first, bound ones by term.Compare.
func CompareRows(a, b []term.Term) int {
	return slices.CompareFunc(a, b, compareCells)
}

// compareCells orders two cells of one column: an unbound (nil) cell
// first, bound ones by term.Compare.
func compareCells(x, y term.Term) int {
	switch {
	case x == nil && y == nil:
		return 0
	case x == nil:
		return -1
	case y == nil:
		return 1
	}
	return term.Compare(x, y)
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

// Query is a conjunctive query body compiled once: its answer columns and
// the variant every Solve plans through.  The ground arguments of a body of
// one positive database literal are parameters, bound by each Solve and not
// answer columns, so one Query serves every query of that predicate and
// binding pattern.  A Query is safe for concurrent Solve calls.
type Query struct {
	v        *Variant
	cols     []term.Var
	params   []term.Var  // bound per Solve, in argument order
	defaults []term.Term // the body's own arguments at the parameters
	distinct bool
	// sized: distinct, with a column and no variable twice, so every fact
	// the literal reads is a row (see size).
	sized bool
}

// NewQuery compiles a query body; see Query.
func NewQuery(body []ast.Literal) *Query {
	q := &Query{cols: Columns(body), distinct: distinctRows(body)}
	if q.distinct {
		vars := 0
		for _, a := range body[0].Args {
			if _, isVar := a.(term.Var); isVar {
				vars++
			}
		}
		q.sized = len(q.cols) > 0 && vars == len(q.cols)
	}
	var pre map[term.Var]bool
	if len(body) == 1 && !body[0].Negated && !layering.IsBuiltin(body[0].Pred) {
		lit := ast.Literal{Pred: body[0].Pred, Args: slices.Clone(body[0].Args)}
		pre = map[term.Var]bool{}
		for i, a := range lit.Args {
			if term.IsGround(a) {
				p := term.Var("$p" + strconv.Itoa(i))
				q.params, q.defaults = append(q.params, p), append(q.defaults, a)
				lit.Args[i], pre[p] = p, true
			}
		}
		body = []ast.Literal{lit}
	}
	q.v = newVariant(ast.Rule{Head: ast.NewLit("$query"), Body: body}, ast.Literal{}, body, -1, pre)
	return q
}

// Table is an answer table: N rows of Width cells each, back to back in
// Cells, one row per distinct solution, one column per entry of
// Columns(body) (nil where no positive literal binds it), rows in
// CompareRows order.  Once Solve returns it no cell is written again: the
// answer cache and every read it serves share the cells.
type Table struct {
	Width, N int
	Cells    []term.Term
}

// Row returns row i, capped so that an append to it cannot reach row i+1.
func (t Table) Row(i int) []term.Term {
	return t.Cells[i*t.Width : (i+1)*t.Width : (i+1)*t.Width]
}

// Rows cuts the table into rows: one header slice of the caller's own over
// the shared cells.
func (t Table) Rows() [][]term.Term {
	out := make([][]term.Term, t.N)
	for i := range out {
		out[i] = t.Row(i)
	}
	return out
}

// SolveLimitsCtx compiles body and solves it once against db: the rows of
// its answer table (see Table).
func SolveLimitsCtx(ctx context.Context, body []ast.Literal, db *store.DB, lim SolveLimits) ([][]term.Term, error) {
	t, err := NewQuery(body).Solve(ctx, db, nil, lim)
	if err != nil {
		return nil, err
	}
	return t.Rows(), nil
}

// Solve returns the answer table of the query against db, with args bound
// to the parameters in argument order (nil: the body's own).  An argument
// is evaluated as a constant column is: 1+1 is 2, and 1/0, outside U,
// matches nothing.  The enumeration aborts with lderr.Canceled /
// lderr.DeadlineExceeded once ctx (which may be nil) is done.
func (q *Query) Solve(ctx context.Context, db *store.DB, args []term.Term, lim SolveLimits) (Table, error) {
	empty := Table{Width: len(q.cols)}
	if args == nil {
		args = q.defaults
	}
	if len(args) != len(q.params) {
		return empty, fmt.Errorf("eval: query takes %d arguments, got %d", len(q.params), len(args))
	}
	p, _, err := q.v.plan(db)
	if err != nil {
		return empty, err
	}
	x := &Exec{b: &budget{ctx: ctx}}
	// One up-front check makes a done context fail even when the
	// enumeration is too short to reach the in-join polling stride.
	if err := x.b.Err(); err != nil {
		return empty, err
	}
	b := x.bindings()
	for i, a := range args {
		v, err := unify.Apply(a, b)
		if errors.Is(err, unify.ErrOutsideU) {
			return empty, nil
		}
		if err != nil {
			return empty, err
		}
		b.Bind(q.params[i], v)
	}
	t := rowTable{width: len(q.cols), distinct: q.distinct}
	if n, ok := q.size(p, db, b); ok {
		t.flat = make([]term.Term, 0, lim.rows(n, t.width)*t.width)
	}
	var solBytes int64
	err = x.heads(q.v, p, db, nil, b, func([]term.Term) error {
		row := t.tail()
		for i, v := range q.cols {
			row[i], _ = b.Lookup(v)
		}
		if !t.keep(row) {
			return nil
		}
		if lim.MaxSolutions > 0 && t.n > lim.MaxSolutions {
			return &lderr.LimitError{Limit: lim.MaxSolutions}
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
		return empty, err
	}
	return t.table(), nil
}

// size returns the number of rows Solve keeps when the store already holds
// it, read before the enumeration: a sized query keeps one row per fact it
// reads, so the relation's length when it scans, the length of the index
// bucket when it probes.  ok is false for an unsized query and for a probe
// no index answers.
func (q *Query) size(p *bodyPlan, db *store.DB, b *unify.Bindings) (n int, ok bool) {
	if !q.sized {
		return 0, false
	}
	rel, a := db.RelOrNil(q.v.body[0].Pred), &p.acc[0]
	switch {
	case rel == nil:
		return 0, true
	case len(a.cols) == 0:
		return rel.Len(), true
	}
	var arr [8]term.Term // probe buffer; stays on the stack
	vals, err := a.probe(b, arr[:0])
	if err != nil {
		return 0, false
	}
	return rel.CountCols(a.cols, vals)
}

// rows caps n, the rows a sized Solve expects, at the most it can keep
// before the limits fail it: MaxSolutions+1 rows, and the rows whose cells
// the memory budget charges at its least, 48 bytes a cell, before it is
// spent.  The cells of a read the limits end are then never made at the
// size of the relation.
func (lim SolveLimits) rows(n, width int) int {
	if lim.MaxSolutions > 0 && n > lim.MaxSolutions {
		n = lim.MaxSolutions + 1 // n is a length, so the sum cannot overflow
	}
	if lim.MemBudget > 0 {
		if m := lim.MemBudget/int64(48*width) + 1; int64(n) > m {
			n = int(m)
		}
	}
	return n
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
// slice, made at its final size when Solve knows it and doubled when it
// fills otherwise.  slots is an open-addressed set of
// row numbers plus one (0 marks a free slot) over hashes, at most half full;
// it stays empty when every solution is known to be a distinct row.
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
	if need := (t.n + 1) * t.width; need > cap(t.flat) {
		t.flat = append(make([]term.Term, 0, max(need, 2*cap(t.flat))), t.flat[:t.n*t.width]...)
	}
	t.flat = t.flat[:(t.n+1)*t.width]
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

// table sorts the kept rows in place by CompareRows and returns them.  The
// cells are the flat slice itself unless more than an eighth of it would be
// spare capacity; then they are an exact copy (the rule class.take keeps).
func (t *rowTable) table() Table {
	cells := t.flat[:t.n*t.width]
	if t.width == 1 {
		slices.SortFunc(cells, compareCells)
	} else if t.n > 1 {
		sort.Sort(flatRows{cells, t.width})
	}
	if cap(cells)-len(cells) > len(cells)/8 {
		cells = append(make([]term.Term, 0, len(cells)), cells...)
	}
	return Table{Width: t.width, N: t.n, Cells: cells}
}

// flatRows sorts rows of width w, back to back in cells, by CompareRows.
type flatRows struct {
	cells []term.Term
	w     int
}

func (r flatRows) Len() int { return len(r.cells) / r.w }
func (r flatRows) Less(i, j int) bool {
	return CompareRows(r.cells[i*r.w:(i+1)*r.w], r.cells[j*r.w:(j+1)*r.w]) < 0
}
func (r flatRows) Swap(i, j int) {
	a, b := r.cells[i*r.w:(i+1)*r.w], r.cells[j*r.w:(j+1)*r.w]
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}
