package ldl1

import (
	"context"

	"ldl1/internal/incr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
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
	// on the view's EDB state, which was cloned from the engine's at
	// Materialize.
	r *reader
}

// Materialize evaluates the engine's program once against its current
// extensional database and returns the incrementally maintained view.
// Subsequent AddFact calls on the engine do not affect the view; use
// Assert/Retract on the view instead.  The engine's WithLimit bound
// carries over: it caps the facts any single update transaction may
// derive, and a breaching transaction rolls back.  WithDeadline carries
// over likewise, per operation.
func (e *Engine) Materialize() (*Materialized, error) {
	e.mu.RLock()
	inner, err := incr.New(e.source, e.edb, incr.Options{
		Workers:    e.cfg.workers,
		Strategy:   e.cfg.strategy,
		Stats:      e.cfg.stats,
		MaxDerived: e.cfg.limit,
	})
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	r := e.cfg.newReader(func(context.Context) (*store.DB, error) { return inner.Snapshot(), nil }, e.r.cones)
	// Delta-driven cache invalidation: a transaction touching any predicate
	// inside a cached query's dependency cone evicts that entry.  The hook
	// runs after the view publishes its new snapshot and before its next
	// transaction, so eviction is never lost under concurrent Exec/Assert.
	inner.OnChange(func(preds []string) { r.cache.Invalidate(preds...) })
	return &Materialized{inner: inner, r: r}, nil
}

// parseFactList parses LDL1 source text consisting of facts only: what
// Engine.AddFacts loads and a view transaction asserts or retracts.
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
		out = append(out, term.NewFact(r.Head.Pred, r.Head.Args...))
	}
	return out, nil
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
	ctx, cancel := withDeadline(ctx, mv.r.deadline)
	defer cancel()
	return mv.inner.ApplyCtx(ctx, incr.Tx{Insert: fs})
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
	ctx, cancel := withDeadline(ctx, mv.r.deadline)
	defer cancel()
	return mv.inner.ApplyCtx(ctx, incr.Tx{Retract: fs})
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
	ctx, cancel := withDeadline(ctx, mv.r.deadline)
	defer cancel()
	return mv.inner.ApplyCtx(ctx, incr.Tx{Insert: ins, Retract: del})
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
