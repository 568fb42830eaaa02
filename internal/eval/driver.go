package eval

import (
	"context"
	"errors"
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/builtin"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// The driver is the one place rules fire.  A budget bounds the work, fire
// enumerates one compiled body and hands each head fact to a Sink, Round
// runs the tasks of one fixpoint round on the caller's goroutine, and
// Cascade repeats rounds until a frontier dries up.
// From-scratch evaluation (eval.go), incremental maintenance (internal/incr)
// and, through Program.Run, magic saturation differ only in the tasks they
// schedule and in what their sinks do with a head fact.

// budget is the resource guard of one Eval call, one magic pass or one
// maintenance transaction: the context, the derived-fact and derived-byte
// bounds, and what has been charged against them so far.
type budget struct {
	ctx        context.Context // may be nil
	maxDerived int             // Options.MaxDerived; 0 = unbounded
	memBudget  int64           // Options.MemBudget; 0 = unbounded
	derived    int
	memUsed    int64
}

// Err maps a canceled/expired context to its taxonomy error; nil when no
// context is attached or it is still live.
func (b *budget) Err() error {
	if b.ctx == nil {
		return nil
	}
	return lderr.FromContext(b.ctx)
}

// Charge records one fact a sink inserted against the bounds and enforces
// them.
func (b *budget) Charge(f *term.Fact) error {
	b.derived++
	if b.maxDerived > 0 && b.derived > b.maxDerived {
		return &lderr.LimitError{Limit: b.maxDerived}
	}
	if b.memBudget > 0 {
		if b.memUsed += factBytes(f); b.memUsed > b.memBudget {
			return &lderr.MemBudgetError{Budget: b.memBudget}
		}
	}
	return nil
}

// factBytes estimates the retained heap size of a fact: headers plus a
// structural walk of its arguments.  The estimate only needs to be
// monotone and roughly proportional — MemBudget is a runaway guard, not an
// accountant.
func factBytes(f *term.Fact) int64 {
	n := int64(48)
	for _, a := range f.Args {
		n += termBytes(a)
	}
	return n
}

func termBytes(t term.Term) int64 {
	switch t := t.(type) {
	case term.Int:
		return 16
	case term.Atom:
		return 16 + int64(len(t))
	case term.Str:
		return 16 + int64(len(t))
	case term.Var:
		return 16 + int64(len(t))
	case *term.Compound:
		n := int64(32 + len(t.Functor))
		for _, a := range t.Args {
			n += termBytes(a)
		}
		return n
	case *term.Set:
		n := int64(32)
		for _, e := range t.Elems() {
			n += termBytes(e)
		}
		return n
	}
	return 16
}

// Sink decides what a head fact means to the caller of a round: a new fact
// of the model, a deletion candidate, a resurrection.
type Sink interface {
	// Probe names the relation head facts of pred are filtered against
	// before one is built (nil stands for an empty relation) and whether a
	// fact must be present in it, or absent from it, to reach Accept.  It
	// is a prefilter only.
	Probe(pred string) (rel *store.Relation, present bool)
	// Accept takes one head fact, during the join that found it, and
	// reports whether it joins the next frontier.  An error aborts the
	// round.
	Accept(f *term.Fact) (bool, error)
}

// Feeds is the variants of one cascade, compiled once, and the predicates
// they read as delta literal, numbered: the only ones a frontier keeps.
type Feeds struct {
	vars  []*Variant
	reads map[string]int
}

// NewFeeds compiles the variants a cascade fires.
func NewFeeds(vars []*Variant) *Feeds {
	fs := &Feeds{vars: vars, reads: map[string]int{}}
	for _, v := range vars {
		p := v.body[v.dLit].Pred
		if _, ok := fs.reads[p]; !ok {
			fs.reads[p] = len(fs.reads)
		}
	}
	return fs
}

// Frontier is the facts one round accepted that the next round reads: those
// of the predicates its feeds read.  It keeps them per predicate in pages
// of pageLen facts — every sink accepts a fact at most once per round, so
// there is nothing to deduplicate — and wraps the pages as delta relations,
// without a copy, when the tasks are built.
type Frontier struct {
	feeds  *Feeds
	plans  []*bodyPlan    // by Variant.slot; nil: ordered per task
	preds  []deltaPages   // by feeds.reads
	seen   *store.FactSet // under DebugFrontier only
	useIdx bool
	n      int
}

// deltaPages is what a frontier holds of one predicate.
type deltaPages struct {
	pages [][]*term.Fact  // past len: a retired round's, emptied, for reuse
	rel   *store.Relation // the delta relation handed out this round
}

// pageLen is the length of a frontier page: the store's segment length, so a
// delta chunk has the shape of a relation's insertion order.
const pageLen = 64

// NewFrontier returns an empty frontier for the cascade of feeds, whose delta
// relations index their facts iff useIdx.
func NewFrontier(useIdx bool, feeds *Feeds) *Frontier {
	return &Frontier{feeds: feeds, preds: make([]deltaPages, len(feeds.reads)), useIdx: useIdx}
}

// DebugFrontier makes Add panic on a fact its frontier was already offered
// — the distinctness the no-dedup construction assumes of every sink.  Only
// tests set it (the eval and incr oracles run under it).
var DebugFrontier bool

// Add records f if a feed reads its predicate.  The first page of a
// predicate grows from empty; the next ones are whole pages, a retired
// round's where there is one.
func (fr *Frontier) Add(f *term.Fact) {
	if DebugFrontier {
		if fr.seen == nil {
			fr.seen = store.NewFactSet()
		}
		if !fr.seen.Add(f) {
			panic(fmt.Sprintf("eval: %s accepted twice in one round", f))
		}
	}
	i, ok := fr.feeds.reads[f.Pred]
	if !ok {
		return
	}
	dp := &fr.preds[i]
	if k := len(dp.pages); k == 0 || len(dp.pages[k-1]) == pageLen {
		if k == cap(dp.pages) {
			dp.pages = append(dp.pages, make([]*term.Fact, 0, min(k, 1)*pageLen))
		}
		dp.pages = dp.pages[:k+1]
	}
	last := &dp.pages[len(dp.pages)-1]
	*last = append(*last, f)
	fr.n++
}

// delta returns the delta relation of pred — one per round, shared by every
// task that reads it, so its index is built once — or nil when the round
// accepted no fact of pred.
func (fr *Frontier) delta(pred string) *store.Relation {
	i, ok := fr.feeds.reads[pred]
	if !ok || len(fr.preds[i].pages) == 0 {
		return nil
	}
	dp := &fr.preds[i]
	if dp.rel == nil {
		dp.rel = store.NewChunk(pred, dp.pages, fr.useIdx)
	}
	return dp.rel
}

// retire empties the frontier once its delta relations are dead, keeping
// its pages for the round after next.
func (fr *Frontier) retire() {
	for k := range fr.preds {
		dp := &fr.preds[k]
		for i, p := range dp.pages {
			clear(p)
			dp.pages[i] = p[:0]
		}
		dp.pages, dp.rel = dp.pages[:0], nil
	}
	fr.seen, fr.n = nil, 0
}

// Variant is a rule body compiled for firing, read-only but for its memo:
// the shape of its body, with at most one literal (dLit) designated to read
// a delta relation instead of the database.  Its body is the rule's, except
// that maintenance delta variants on a negated literal carry that literal
// positively.
type Variant struct {
	shape
	// head is evaluated per solution; for a grouping rule its group
	// argument is the grouped variable itself.
	head ast.Literal
	// slot numbers the variant in its layer's plan slice of an evaluation.
	slot int
}

// Task is one unit of a round: a variant fired under plan p — nil: ordered
// against db when it fires — against a database and, when the variant has a
// delta literal, a delta relation.
type Task struct {
	v     *Variant
	p     *bodyPlan
	db    *store.DB
	delta *store.Relation
}

// Task schedules the variant against db, its delta literal reading delta.
func (v *Variant) Task(db *store.DB, delta *store.Relation) Task {
	return Task{v: v, db: db, delta: delta}
}

// Exec is the firing context of one driver: the budget it polls, the
// counters it accumulates (the driver flushes them into Stats), and where
// the head facts of the running task go.
type Exec struct {
	b      *budget
	polls  uint
	static bool // every body is ordered statically: Options.NoReorder
	// prov, when non-nil, makes join keep the trail of matched database
	// facts so derivations can be recorded.
	prov  *Provenance
	trail []*term.Fact
	neg   []term.Term   // argument buffer of the negated literal being checked
	one   [1]*term.Fact // a full-key probe's fact; match reads it before the next probe

	firings, idxHits, fullScans int

	// What the running enumeration reads: literal deltaSlot of the body
	// reads delta (when non-nil), every other literal reads db.
	db        *store.DB
	delta     *store.Relation
	deltaSlot int

	sink Sink
	next *Frontier
}

// pollEvery is the firing interval of the in-join interrupt poll: frequent
// enough that one monster round (a grouping enumeration, a wide join)
// still aborts promptly, rare enough to stay off the profile.
const pollEvery = 256

// poll is the cheap in-join interrupt check: every pollEvery firings it
// consults the context.
func (x *Exec) poll() error {
	x.polls++
	if x.polls%pollEvery != 0 {
		return nil
	}
	return x.b.Err()
}

// against returns the database a body is ordered against: db, the one it
// reads, or nil — the static order — under Options.NoReorder.
func (x *Exec) against(db *store.DB) *store.DB {
	if x.static {
		return nil
	}
	return db
}

// heads enumerates the solutions of the variant's body under plan p — nil:
// the plan of the body ordered against db — its delta literal reading delta,
// the rest db, counting a firing and polling the budget per solution, and
// yields the head arguments of every solution inside U (§3.2) in a scratch
// slice valid only for the duration of the call, so a firing that derives
// nothing new allocates nothing.  b holds the live bindings during yield.
func (x *Exec) heads(v *Variant, p *bodyPlan, db *store.DB, delta *store.Relation, b *unify.Bindings, yield func(args []term.Term) error) error {
	if p == nil {
		var err error
		if p, _, err = v.plan(x.against(db)); err != nil {
			return err
		}
	}
	x.db, x.delta, x.deltaSlot = db, delta, v.dLit
	scratch := make([]term.Term, len(v.head.Args))
	return x.join(v.body, p, 0, b, func() error {
		x.firings++
		if err := x.poll(); err != nil {
			return err
		}
		for i, a := range v.head.Args {
			t, err := unify.Apply(a, b)
			if err != nil {
				if errors.Is(err, unify.ErrOutsideU) {
					return nil // the rule does not fire
				}
				return fmt.Errorf("rule %q: %w", v.rule.String(), err)
			}
			scratch[i] = t
		}
		return yield(scratch)
	})
}

// fire enumerates the task and offers every head fact that passes the
// sink's probe to the sink.
func (x *Exec) fire(t Task) error {
	pred := t.v.head.Pred
	rel, present := x.sink.Probe(pred)
	fresh := true
	return x.heads(t.v, t.p, t.db, t.delta, unify.NewBindings(), func(scratch []term.Term) error {
		h := term.HashFactArgs(pred, scratch)
		if has := rel != nil && rel.GetArgs(h, scratch) != nil; has != present {
			return nil
		}
		f := term.NewFactOf(pred, scratch, h)
		ok, err := x.sink.Accept(f)
		if !ok || err != nil {
			return err
		}
		if x.next != nil {
			x.next.Add(f)
		}
		if fresh {
			// The first insert into a relation the database shares with a
			// clone replaces it with a private copy: probe that one.
			fresh = false
			rel, _ = x.sink.Probe(pred)
		}
		if x.prov != nil {
			x.prov.record(&Derivation{Fact: f, Rule: t.v.rule.String(), Premises: append([]*term.Fact(nil), x.trail...)})
		}
		return nil
	})
}

// join enumerates all bindings satisfying body literals p.order[step:],
// probing each positive database literal through its compiled access path.
func (x *Exec) join(body []ast.Literal, p *bodyPlan, step int, b *unify.Bindings, yield func() error) error {
	if step == len(p.order) {
		return yield()
	}
	idx := p.order[step]
	l := body[idx]
	cont := func() error { return x.join(body, p, step+1, b, yield) }

	if layering.IsBuiltin(l.Pred) {
		return builtin.Eval(l, b, cont)
	}
	if l.Negated {
		// The probe needs the literal's ground arguments, not a fact: they
		// go into a buffer the next negated literal overwrites.
		x.neg = x.neg[:0]
		for _, a := range l.Args {
			t, err := unify.Apply(a, b)
			if err != nil {
				if errors.Is(err, unify.ErrOutsideU) {
					// A negated predicate on an object outside U is false,
					// so its negation holds (§2.2 built-in restrictions).
					return cont()
				}
				return fmt.Errorf("negated literal %q: %w", l.String(), err)
			}
			x.neg = append(x.neg, t)
		}
		if rel := x.db.RelOrNil(l.Pred); rel != nil && rel.GetArgs(term.HashFactArgs(l.Pred, x.neg), x.neg) != nil {
			return nil
		}
		return cont()
	}

	return x.candidates(x.relFor(idx, l.Pred), &p.acc[step], l, b, cont)
}

// match continues the join with every fact of facts that l matches.
func (x *Exec) match(l ast.Literal, facts []*term.Fact, b *unify.Bindings, cont func() error) error {
	for _, f := range facts {
		mark := b.Mark()
		if unify.MatchFact(l, f, b) {
			if x.prov != nil {
				x.trail = append(x.trail, f)
			}
			err := cont()
			if x.prov != nil {
				x.trail = x.trail[:len(x.trail)-1]
			}
			b.Undo(mark)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// emptyRel is the shared placeholder candidates source for predicates with
// no relation yet.  relFor must not create relations: maintenance
// enumerations run against shared (even published) databases, and db.Rel
// would mutate the relation map under concurrent readers.
var emptyRel = store.NewRelation("$empty", false)

func (x *Exec) relFor(litIdx int, pred string) *store.Relation {
	if x.delta != nil && litIdx == x.deltaSlot {
		return x.delta
	}
	if r := x.db.RelOrNil(pred); r != nil {
		return r
	}
	return emptyRel
}

// candidates matches l against the facts its compiled access path narrows
// the relation to: the probe values for every plan-time-ground column are
// extracted from the bindings and looked up in one (possibly composite) hash
// index.  The binding pattern is never re-derived here — the plan fixed it
// when the order was compiled.  With nothing to probe with, it walks the
// whole relation.  A probe or a scan walks run by run and stops after the
// facts it held when the walk began: the round's sink may insert into the
// relations the body reads, and what it appends is the next round's.
func (x *Exec) candidates(rel *store.Relation, a *access, l ast.Literal, b *unify.Bindings, cont func() error) error {
	each := func(run []*term.Fact) error { return x.match(l, run, b, cont) }
	if len(a.cols) > 0 {
		var arr [8]term.Term // probe buffer; stays on the stack
		var vals []term.Term
		if len(a.cols) <= len(arr) {
			vals = arr[:len(a.cols)]
		} else {
			vals = make([]term.Term, len(a.cols))
		}
		ok := true
		for i, key := range a.keys {
			v, err := key(b)
			if err != nil {
				if errors.Is(err, unify.ErrOutsideU) {
					return nil // argument outside U never matches
				}
				// The static analysis over-promised (should not happen);
				// fall back to a scan rather than probing a bogus key.
				ok = false
				break
			}
			vals[i] = v
		}
		if ok {
			var indexed bool
			var err error
			if a.full && rel != x.delta {
				// A probe naming a whole fact reads the intern tables (delta
				// chunks have none), so no index over every column is built
				// and kept up to date; it counts as ScanCols would.
				indexed = rel.Indexed(a.cols)
				if x.one[0] = rel.GetArgs(term.HashFactArgs(rel.Name, vals), vals); x.one[0] != nil {
					err = x.match(l, x.one[:], b, cont)
				}
			} else {
				indexed, err = rel.ScanCols(a.cols, vals, each)
			}
			if indexed {
				x.idxHits++
			} else {
				x.fullScans++
			}
			return err
		}
	}
	x.fullScans++
	return rel.Scan(each)
}

// Driver runs rounds under one budget, all on the caller's goroutine.  It
// is not safe for concurrent use.
type Driver struct {
	budget
	stats *Stats
	x     Exec
	tasks []Task // a round's tasks, reused round after round
}

// NewDriver returns a driver for one evaluation or maintenance transaction
// under opts: enumerations through it poll opts.Ctx, facts charged to it
// count against opts.MaxDerived and opts.MemBudget, its counters land in
// opts.Stats, its bodies are ordered statically under opts.NoReorder, and
// its firings are recorded in opts.Provenance.  The Strategy is Run's.
func NewDriver(opts Options) *Driver {
	d := &Driver{stats: opts.Stats}
	d.ctx, d.maxDerived, d.memBudget = opts.Ctx, opts.MaxDerived, opts.MemBudget
	d.x.b, d.x.prov, d.x.static = &d.budget, opts.Provenance, opts.NoReorder
	return d
}

// Do runs f with the driver's firing context: enumerations outside any
// round (the regrouping of maintenance) poll the same budget and land in
// the same counters.
func (d *Driver) Do(f func(x *Exec) error) error {
	defer d.flush(&d.x)
	return f(&d.x)
}

// flush moves a firing context's counters into the stats sink, if any.
func (d *Driver) flush(x *Exec) {
	if d.stats != nil {
		d.stats.Firings += x.firings
		d.stats.IndexHits += x.idxHits
		d.stats.FullScans += x.fullScans
	}
	x.firings, x.idxHits, x.fullScans = 0, 0, 0
}

func (d *Driver) bumpIter() {
	if d.stats != nil {
		d.stats.Iterations++
	}
}

// Round runs the tasks of one round in order and records the facts the sink
// accepts in next (which may be nil).  Each head fact goes to the sink
// during the join that found it, so a fact the sink inserts serves the rest
// of the round.  The budget is checked before every task.
func (d *Driver) Round(tasks []Task, sink Sink, next *Frontier) error {
	x := &d.x
	defer d.flush(x)
	x.sink, x.next = sink, next
	for _, t := range tasks {
		if err := d.Err(); err != nil {
			return err
		}
		if err := x.fire(t); err != nil {
			return err
		}
	}
	return nil
}

// Cascade runs rounds until the frontier is empty: each round fires every
// variant fr feeds whose delta literal has frontier facts against db, and the
// facts the sink accepts are the next frontier.
// It consumes fr: two frontiers take turns and keep their pages, so a round
// allocates only the delta relations it fills and the pages of a frontier
// larger than any before it.
// before, when non-nil, runs ahead of every round — evaluation refreshes
// its plans there — and ends the cascade by returning false.
func (d *Driver) Cascade(fr *Frontier, db *store.DB, sink Sink, before func(round int) (bool, error)) error {
	if fr.n == 0 {
		return nil
	}
	next := NewFrontier(fr.useIdx, fr.feeds)
	next.plans = fr.plans
	for round := 1; fr.n > 0; round++ {
		if err := d.Err(); err != nil {
			return err
		}
		if before != nil {
			if more, err := before(round); err != nil || !more {
				return err
			}
		}
		d.bumpIter()
		tasks := d.tasks[:0]
		for _, v := range fr.feeds.vars {
			if delta := fr.delta(v.body[v.dLit].Pred); delta != nil {
				t := v.Task(db, delta)
				if fr.plans != nil {
					t.p = fr.plans[v.slot]
				}
				tasks = append(tasks, t)
			}
		}
		d.tasks = tasks
		if err := d.Round(tasks, sink, next); err != nil {
			return err
		}
		fr, next = next, fr
		next.retire()
	}
	return nil
}
