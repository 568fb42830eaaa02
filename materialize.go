package ldl1

import (
	"context"
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/incr"
	"ldl1/internal/parser"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// UpdateResult summarises the net model change of one update transaction:
// facts added to and removed from the model, EDB and derived together.
type UpdateResult = incr.Result

// Materialized is an incrementally maintained materialization of an
// engine's program: Assert and Retract apply EDB update transactions and
// produce the next consistent model by delta propagation (semi-naive
// insertion rules, delete-and-rederive for retractions, ≡-class regrouping
// for grouping heads) instead of a from-scratch fixpoint.  Model returns an
// immutable snapshot; updates serialize internally, and snapshots taken
// before an update remain valid and unchanged, so concurrent readers never
// observe a half-applied transaction.
type Materialized struct {
	inner *incr.Materialized
	// r answers every Query and prepared Exec from the snapshot current at
	// the read's start.  Its answer cache is the view's own: entries depend
	// on the view's EDB state, which was the engine's at Materialize.
	r    *reader
	sink *sink // the engine's WithStats sink, which transactions count into
}

// Materialize returns an incrementally maintained view of the engine's
// model: an O(1) clone of it, brought up to date as Run brings it, so it
// evaluates nothing when a read has built the model and no load has come
// since.  From then on the two
// are apart: AddFact on the engine does not reach the view, Assert/Retract
// on the view do not reach the engine.  Each transaction keeps WithLimit,
// which caps the facts it may derive (a breaching transaction rolls back),
// and WithDeadline.
func (e *Engine) Materialize() (*Materialized, error) {
	v, err := e.materialized(context.Background())
	if err != nil {
		return nil, err
	}
	inner := v.Clone()
	r := e.cfg.newReader(func(context.Context) (*incr.Materialized, error) { return inner, nil }, e.r.cones)
	// Delta-driven cache invalidation: a transaction touching any predicate
	// inside a cached query's dependency cone evicts that entry.  The hook
	// runs after the view publishes its new snapshot and before its next
	// transaction, so eviction is never lost under concurrent Exec/Assert.
	inner.OnChange(func(preds []string) { r.cache.Invalidate(preds...) })
	return &Materialized{inner: inner, r: r, sink: e.r.sink}, nil
}

// parseFactList parses LDL1 source text consisting of ground facts only:
// what Engine.AddFacts loads, a view transaction asserts or retracts, and
// Model.Contains and Explain look up.  A fact groundFact rejects is a
// ParseError at that fact.
func parseFactList(src string) ([]*term.Fact, error) {
	p, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	out := make([]*term.Fact, 0, len(p.Rules))
	for _, r := range p.Rules {
		if !r.IsFact() {
			return nil, &ParseError{Line: r.Pos.Line, Col: r.Pos.Col, Msg: "fact list contains a rule: " + r.String()}
		}
		f, err := groundFact(r.Head)
		if err != nil {
			return nil, &ParseError{Line: r.Pos.Line, Col: r.Pos.Col, Msg: err.Error()}
		}
		out = append(out, f)
	}
	return out, nil
}

// groundFact evaluates a fact as a fact of the program text is (§2.2: 2+2
// is 4, scons(3, {4}) is {3, 4}).  A fact with a variable (§7) or one whose
// evaluation leaves U, as 1/0 does, is an error.
func groundFact(h ast.Literal) (*term.Fact, error) {
	if err := ast.CheckRuleSafe(ast.Rule{Head: h}); err != nil {
		return nil, err
	}
	return unify.ApplyLit(h, unify.NewBindings())
}

// parseFact parses one fact written without its period.
func parseFact(src string) (*term.Fact, error) {
	fs, err := parseFactList(src + ".")
	if err == nil && len(fs) != 1 {
		err = fmt.Errorf("ldl1: %q is not a single fact", src)
	}
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// apply runs one transaction under the view's deadline.
func (mv *Materialized) apply(ctx context.Context, tx incr.Tx) (UpdateResult, error) {
	ctx, cancel := withDeadline(ctx, mv.r.deadline)
	defer cancel()
	st, merge := mv.sink.stats()
	defer merge()
	tx.Stats = st
	return mv.inner.ApplyCtx(ctx, tx)
}

// Assert inserts extensional facts given as source text ("par(a, b). ...")
// as one transaction and incrementally updates the model.
func (mv *Materialized) Assert(src string) (UpdateResult, error) {
	return mv.AssertCtx(context.Background(), src)
}

// AssertCtx is Assert under a context.  A canceled context or expired
// deadline rolls the transaction back completely: neither the view's EDB
// nor any model snapshot changes, and the returned error satisfies
// errors.Is against lderr.Canceled or lderr.DeadlineExceeded.
func (mv *Materialized) AssertCtx(ctx context.Context, src string) (UpdateResult, error) {
	fs, err := parseFactList(src)
	if err != nil {
		return UpdateResult{}, err
	}
	return mv.apply(ctx, incr.Tx{Insert: fs})
}

// Retract removes extensional facts given as source text as one
// transaction and incrementally updates the model.  Retracting an absent
// fact is a no-op.
func (mv *Materialized) Retract(src string) (UpdateResult, error) {
	return mv.RetractCtx(context.Background(), src)
}

// RetractCtx is Retract under a context, with AssertCtx's rollback
// guarantee.
func (mv *Materialized) RetractCtx(ctx context.Context, src string) (UpdateResult, error) {
	fs, err := parseFactList(src)
	if err != nil {
		return UpdateResult{}, err
	}
	return mv.apply(ctx, incr.Tx{Retract: fs})
}

// Update applies insertions and retractions, both given as fact-list
// source text, as ONE transaction: the model moves atomically from the
// state before the call to the state with both applied, and concurrent
// readers never observe the insertions without the retractions or vice
// versa.  Either argument may be empty.
func (mv *Materialized) Update(assertSrc, retractSrc string) (UpdateResult, error) {
	return mv.UpdateCtx(context.Background(), assertSrc, retractSrc)
}

// UpdateCtx is Update under a context, with AssertCtx's rollback
// guarantee.
func (mv *Materialized) UpdateCtx(ctx context.Context, assertSrc, retractSrc string) (UpdateResult, error) {
	ins, err := parseFactList(assertSrc)
	if err != nil {
		return UpdateResult{}, err
	}
	del, err := parseFactList(retractSrc)
	if err != nil {
		return UpdateResult{}, err
	}
	return mv.apply(ctx, incr.Tx{Insert: ins, Retract: del})
}

// Model returns the current model as an immutable snapshot.
func (mv *Materialized) Model() *Model {
	return &Model{db: mv.inner.Snapshot()}
}

// Query answers a conjunctive query against the current model snapshot.
func (mv *Materialized) Query(q string) (*Answers, error) {
	return mv.QueryOpts(context.Background(), q, ReadOpts{})
}

// QueryCtx is Query under a context; enumeration stops at the next
// solution once the context is done.
func (mv *Materialized) QueryCtx(ctx context.Context, q string) (*Answers, error) {
	return mv.QueryOpts(ctx, q, ReadOpts{})
}

// QueryOpts is QueryCtx under per-call resource bounds.  The read is
// lock-free: it loads the current published snapshot and never blocks or is
// blocked by concurrent Assert/Retract/Update transactions (which publish
// their own snapshots atomically).  Cache-shaped single-literal queries are
// served from and fill the view's answer cache.
func (mv *Materialized) QueryOpts(ctx context.Context, q string, o ReadOpts) (*Answers, error) {
	return mv.r.query(ctx, q, o)
}

// Prepare compiles a query for repeated execution against the view; see
// PreparedQuery.  Each Exec sees the snapshot current at its start.
func (mv *Materialized) Prepare(q string) (*PreparedView, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return mv.r.prepare(query)
}

// CacheCounters reports the view's answer-cache statistics: cumulative
// hits, misses, and evictions, plus the live entry count.  All zero when
// the engine was built with WithoutQueryCache.
func (mv *Materialized) CacheCounters() (hits, misses, evictions, entries int) {
	hits, misses, evictions = mv.r.cache.Counters()
	return hits, misses, evictions, mv.r.cache.Len()
}
