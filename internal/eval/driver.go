package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// runs the tasks of one fixpoint round (on the caller's goroutine or on the
// worker pool), and Cascade repeats rounds until a frontier dries up.
// From-scratch evaluation (eval.go), incremental maintenance (internal/incr)
// and, through EvalGroupsEach, magic saturation differ only in the tasks
// they schedule and in what their sinks do with a head fact.

// budget is the resource guard of one Eval call, one magic pass or one
// maintenance transaction: the context, the derived-fact and derived-byte
// bounds, and what has been charged against them so far.
type budget struct {
	ctx        context.Context // may be nil
	maxDerived int             // Options.MaxDerived; 0 = unbounded
	memBudget  int64           // Options.MemBudget; 0 = unbounded
	derived    int
	memUsed    int64
	// breach is raised by a worker that has buffered enough new facts to
	// make a MaxDerived breach certain; the other workers poll it and stop
	// enumerating.  It is only ever raised on a certain breach, so stopping
	// early cannot flip an outcome.
	breach atomic.Bool
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
		return &LimitError{Limit: b.maxDerived}
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
	// is a prefilter only and must not mutate anything: pool workers call
	// it concurrently.
	Probe(pred string) (rel *store.Relation, present bool)
	// Accept takes one head fact — always on the driver's goroutine, in
	// task order — and reports whether it joins the next frontier.  An
	// error aborts the round.
	Accept(f *term.Fact) (bool, error)
}

// Frontier is the facts one round accepted, per predicate: what the body
// literals of the next round's tasks read.  It keeps plain slices — every
// sink accepts a fact at most once per round, so there is nothing to
// deduplicate — and wraps them as delta relations when the tasks are built.
type Frontier struct {
	facts  map[string][]*term.Fact
	rels   map[string]*store.Relation // delta relations handed out so far
	seen   *store.FactSet             // under DebugFrontier only
	useIdx bool
	n      int
}

// NewFrontier returns an empty frontier whose delta relations index their
// facts iff useIdx.
func NewFrontier(useIdx bool) *Frontier { return &Frontier{useIdx: useIdx} }

// DebugFrontier makes Add panic on a fact its frontier already holds — the
// distinctness the no-dedup construction assumes of every sink.  Only tests
// set it (the eval and incr oracles run under it).
var DebugFrontier bool

// Add appends f to the facts of its predicate.
func (fr *Frontier) Add(f *term.Fact) {
	if fr.facts == nil {
		fr.facts, fr.rels = map[string][]*term.Fact{}, map[string]*store.Relation{}
	}
	if DebugFrontier {
		if fr.seen == nil {
			fr.seen = store.NewFactSet()
		}
		if !fr.seen.Add(f) {
			panic(fmt.Sprintf("eval: %s accepted twice in one round", f))
		}
	}
	fr.facts[f.Pred] = append(fr.facts[f.Pred], f)
	fr.n++
}

// delta returns the delta relation of pred — one per round, shared by every
// task that reads it, so its index is built once — or nil when the round
// accepted no fact of pred.
func (fr *Frontier) delta(pred string) *store.Relation {
	rel := fr.rels[pred]
	if facts := fr.facts[pred]; rel == nil && len(facts) > 0 {
		rel = store.NewChunk(pred, facts, fr.useIdx)
		fr.rels[pred] = rel
	}
	return rel
}

// Variant is a rule body compiled for firing: an execution plan with at
// most one literal (dLit) designated to read a delta relation instead of
// the database.
type Variant struct {
	rule ast.Rule
	// head is evaluated per solution; for a grouping rule compiled for
	// maintenance its group argument is the grouped variable itself.
	head ast.Literal
	// body is rule.Body, except that maintenance delta variants on a
	// negated literal carry that literal positively.
	body []ast.Literal
	plan *bodyPlan
	dLit int // -1: every literal reads the database
}

// Task is one unit of a round: a variant fired against a database and, when
// the variant has a delta literal, a delta relation — or a Check.
type Task struct {
	v     *Variant
	db    *store.DB
	delta *store.Relation
	check func(x *Exec) error
}

// Task schedules the variant against db, its delta literal reading delta.
func (v *Variant) Task(db *store.DB, delta *store.Relation) Task {
	return Task{v: v, db: db, delta: delta}
}

// Check wraps a composite task — several enumerations behind one decision,
// such as the rederivation test of delete-and-rederive — that hands the
// round's sink at most a few facts through Exec.Emit.
func Check(f func(x *Exec) error) Task { return Task{check: f} }

func (t *Task) run(x *Exec) error {
	if t.check != nil {
		return t.check(x)
	}
	return x.fire(t.v, t.db, t.delta)
}

// Exec is the firing context of one goroutine: the budget it polls, the
// counters it accumulates (the driver flushes them into Stats on its own
// goroutine), and where the head facts of the running task go.
type Exec struct {
	b     *budget
	polls uint
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
// consults the shared breach flag and the context.
func (x *Exec) poll() error {
	x.polls++
	if x.polls%pollEvery != 0 {
		return nil
	}
	if x.b.breach.Load() {
		return &LimitError{Limit: x.b.maxDerived}
	}
	return x.b.Err()
}

// heads enumerates the solutions of the variant's body — its delta literal
// reading delta, the rest db — counting a firing and polling the budget per
// solution, and yields the head arguments of every solution inside U (§3.2)
// in a scratch slice valid only for the duration of the call, so a firing
// that derives nothing new allocates nothing.  b holds the live bindings
// during yield.
func (x *Exec) heads(v *Variant, db *store.DB, delta *store.Relation, b *unify.Bindings, yield func(args []term.Term) error) error {
	x.db, x.delta, x.deltaSlot = db, delta, v.dLit
	scratch := make([]term.Term, len(v.head.Args))
	return x.join(v.body, v.plan, 0, b, func() error {
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

// fire enumerates the variant and offers every head fact that passes the
// sink's probe to the sink.
func (x *Exec) fire(v *Variant, db *store.DB, delta *store.Relation) error {
	pred := v.head.Pred
	rel, present := x.sink.Probe(pred)
	fresh := true
	return x.heads(v, db, delta, unify.NewBindings(), func(scratch []term.Term) error {
		h := term.HashFactArgs(pred, scratch)
		if has := rel != nil && rel.GetArgs(h, scratch) != nil; has != present {
			return nil
		}
		f := term.NewFactOf(pred, scratch, h)
		ok, err := x.Emit(f)
		if !ok || err != nil {
			return err
		}
		if fresh {
			// The first insert into a relation the database shares with a
			// clone replaces it with a private copy: probe that one.
			fresh = false
			rel, _ = x.sink.Probe(pred)
		}
		if x.prov != nil {
			x.prov.record(&Derivation{Fact: f, Rule: v.rule.String(), Premises: append([]*term.Fact(nil), x.trail...)})
		}
		return nil
	})
}

// Emit hands f to the sink of the running round, reporting whether the sink
// took it at once (false while a round buffers).  Tasks made by Check call
// it; tasks made by Variant.Task emit through their own firing.
func (x *Exec) Emit(f *term.Fact) (bool, error) {
	ok, err := x.sink.Accept(f)
	if ok && x.next != nil {
		x.next.Add(f)
	}
	return ok, err
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

	rel := x.relFor(idx, l.Pred)
	facts, scan := x.candidates(rel, &p.acc[step], b)
	if !scan {
		return x.match(l, facts, b, cont)
	}
	// A full scan walks the relation segment by segment and stops after the
	// facts it held when the scan began: in a live round the body inserts
	// into the relations it reads, and what it appends is the next round's.
	for left, i := rel.Len(), 0; left > 0; i++ {
		seg := rel.Segment(i)
		seg = seg[:min(len(seg), left)]
		left -= len(seg)
		if err := x.match(l, seg, b, cont); err != nil {
			return err
		}
	}
	return nil
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
// no relation yet.  relFor must not create relations: workers and
// maintenance enumerations run against shared (even published) databases,
// and db.Rel would mutate the relation map under concurrent readers.
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

// candidates narrows the fact scan through the literal's compiled access
// path: the probe values for every plan-time-ground column are extracted
// from the bindings and looked up in one (possibly composite) hash index.
// The binding pattern is never re-derived here — planBody fixed it when the
// layer was planned.  scan reports that there is nothing to probe with and
// the caller has to walk the whole relation.
func (x *Exec) candidates(rel *store.Relation, a *access, b *unify.Bindings) (facts []*term.Fact, scan bool) {
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
					return nil, false // argument outside U never matches
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
			if a.full && rel != x.delta {
				// A probe naming a whole fact reads the intern tables (delta
				// chunks have none), so no index over every column is built
				// and kept up to date; it counts as LookupCols would.
				indexed = rel.Indexed(a.cols)
				if x.one[0] = rel.GetArgs(term.HashFactArgs(rel.Name, vals), vals); x.one[0] != nil {
					facts = x.one[:]
				}
			} else {
				facts, indexed = rel.LookupCols(a.cols, vals)
			}
			if indexed {
				x.idxHits++
			} else {
				x.fullScans++
			}
			return facts, false
		}
	}
	x.fullScans++
	return nil, true
}

// Driver runs rounds under one budget.  It is not safe for concurrent use:
// one goroutine drives, and only Round starts others.
type Driver struct {
	budget
	stats   *Stats
	workers int
	// live makes a round on the caller's goroutine hand each head fact to
	// the sink during the join that found it.  From-scratch evaluation with
	// Workers <= 1 runs live — a fact inserted mid-round serves the rest of
	// the round, and nothing is buffered; every other round is deferred, so
	// its tasks read the state the round started from and what the sink
	// sees does not depend on the worker count.
	live bool
	x    Exec // the driving goroutine's context
}

// NewDriver returns a driver for one maintenance transaction: enumerations
// through it poll ctx (which may be nil), facts charged to it count against
// maxDerived (0 = unbounded), its counters land in st (which may be nil),
// and its rounds run on up to workers goroutines.
func NewDriver(ctx context.Context, st *Stats, workers, maxDerived int) *Driver {
	d := &Driver{stats: st, workers: workers}
	d.ctx, d.maxDerived = ctx, maxDerived
	d.x.b = &d.budget
	return d
}

// Do runs f on the caller's goroutine with the driver's own firing context:
// enumerations outside any round (the regrouping of maintenance) poll the
// same budget and land in the same counters.
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

// bufSink stands in for the round's sink while a task of a deferred round
// runs: it keeps the task's distinct head facts for the replay.
type bufSink struct {
	Sink
	b      *budget
	absent bool // the facts buffered are absent from the relation probed
	out    []*term.Fact
	seen   *store.FactSet // nil until the second fact
}

func (s *bufSink) Probe(pred string) (*store.Relation, bool) {
	rel, present := s.Sink.Probe(pred)
	s.absent = !present
	return rel, present
}

func (s *bufSink) Accept(f *term.Fact) (bool, error) {
	if len(s.out) > 0 {
		if s.seen == nil {
			s.seen = store.NewFactSet()
			s.seen.Add(s.out[0])
		}
		if !s.seen.Add(f) {
			return false, nil
		}
	}
	s.out = append(s.out, f)
	// The task's facts are distinct and absent from the relation they will
	// be inserted into, so the replay charges at least this many on top of
	// the exact count the round started from — whatever the other tasks
	// find.  Past the bound that is a certain breach.
	if s.absent && s.b.maxDerived > 0 && s.b.derived+len(s.out) > s.b.maxDerived {
		s.b.breach.Store(true)
		return false, &LimitError{Limit: s.b.maxDerived}
	}
	return false, nil
}

// Round runs the tasks of one round and records the facts the sink accepts
// in next (which may be nil).  A live round hands head facts to the sink as
// they are found.  A deferred round gives every task a private buffer,
// fills the buffers on min(workers, len(tasks)) goroutines — the caller's
// own when that is one — and replays them into the sink in task order, so
// the sink sees the same facts in the same order for any worker count.
// The tasks only read: sink.Accept alone mutates, on the caller's goroutine.
func (d *Driver) Round(tasks []Task, sink Sink, next *Frontier) error {
	x := &d.x
	defer d.flush(x)
	x.sink, x.next = sink, next
	if d.live {
		for i := range tasks {
			if err := tasks[i].run(x); err != nil {
				return err
			}
		}
		return nil
	}
	bufs := make([]bufSink, len(tasks))
	errs := make([]error, len(tasks))
	var claimed atomic.Int64
	// A worker stops at its first error: tasks are claimed in order, so
	// every earlier task is already with a worker that finishes it, and
	// the first error in task order is the same on every schedule.
	work := func(w *Exec) {
		for {
			i := int(claimed.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			if errs[i] = d.Err(); errs[i] != nil {
				return
			}
			bufs[i] = bufSink{Sink: sink, b: &d.budget}
			w.sink, w.next, w.polls = &bufs[i], nil, 0
			if errs[i] = tasks[i].run(w); errs[i] != nil {
				return
			}
		}
	}
	if n := min(d.workers, len(tasks)); n <= 1 {
		work(x)
	} else {
		pool := make([]Exec, n)
		var wg sync.WaitGroup
		for i := range pool {
			pool[i].b = &d.budget
			wg.Add(1)
			go func(w *Exec) {
				defer wg.Done()
				work(w)
			}(&pool[i])
		}
		wg.Wait()
		for i := range pool {
			d.flush(&pool[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	x.sink, x.next = sink, next
	for i := range bufs {
		for _, f := range bufs[i].out {
			if _, err := x.Emit(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Cascade runs rounds until the frontier is empty: each round fires every
// variant whose delta literal has frontier facts (split into per-worker
// chunks) against db, and the facts the sink accepts are the next frontier.
// It consumes fr: two frontiers take turns and keep their per-predicate
// slices, so a round allocates only the delta relations it fills and the
// growth of a frontier larger than any before it.
// before, when non-nil, runs ahead of every round — evaluation refreshes
// its plans there — and ends the cascade by returning false.
func (d *Driver) Cascade(fr *Frontier, variants []*Variant, db *store.DB, sink Sink, before func(round int) (bool, error)) error {
	var tasks []Task
	next := NewFrontier(fr.useIdx)
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
		tasks = tasks[:0]
		for _, v := range variants {
			if delta := fr.delta(v.body[v.dLit].Pred); delta != nil {
				tasks = d.chunks(tasks, v, db, delta, fr.useIdx)
			}
		}
		if err := d.Round(tasks, sink, next); err != nil {
			return err
		}
		fr, next = next, fr
		// The delta chunks of the retired frontier are dead: the next round
		// appends into their slices instead of growing new ones.
		for pred, facts := range next.facts {
			clear(facts)
			next.facts[pred] = facts[:0]
		}
		clear(next.rels)
		next.seen, next.n = nil, 0
	}
	return nil
}

// chunks appends the round's tasks for one variant: its delta split into up
// to Workers roughly equal pieces that share the variant's plan, so a single
// wide round parallelizes within one rule as well; small deltas stay whole.
// Delta facts are already distinct, so chunks use the no-dedup construction:
// no per-chunk bucket maps are built only to be thrown away after the round.
func (d *Driver) chunks(tasks []Task, v *Variant, db *store.DB, delta *store.Relation, useIdx bool) []Task {
	facts, n := delta.All(), d.workers
	if n <= 1 || len(facts) < 2*n {
		return append(tasks, v.Task(db, delta))
	}
	size := (len(facts) + n - 1) / n
	for start := 0; start < len(facts); start += size {
		end := min(start+size, len(facts))
		tasks = append(tasks, v.Task(db, store.NewChunk(delta.Name, facts[start:end], useIdx)))
	}
	return tasks
}
