package ldl1

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// answerCacheCap bounds a reader's answer cache.  Entries hold solution
// slices, so the cap trades memory against repeated-query latency.
const answerCacheCap = 128

// ReadOpts bounds one read.  The zero value applies only the engine-level
// WithDeadline, if any.  These are the per-request knobs the ldl1d server
// maps from its request bodies; library callers can use them directly.
type ReadOpts struct {
	// Deadline, when positive, replaces the engine's WithDeadline for this
	// read only.  It composes with the caller's context — whichever
	// expires first aborts the read with lderr.DeadlineExceeded.
	Deadline time.Duration
	// MaxRows, when positive, aborts the read with *lderr.LimitError once
	// more than that many distinct answer rows exist.  It is enforced on
	// cache hits too, so a bounded request behaves identically whether or
	// not an earlier request already computed the full answer set.
	MaxRows int
	// MemBudget, when positive, aborts the read with *lderr.MemBudgetError
	// once the retained solution bindings (or, on a WithMagic engine's
	// compiled path, the facts the evaluation derives — replacing
	// WithMemBudget for this read) exceed approximately that many bytes.
	// It bounds evaluation work, so an answer served from the cache (no
	// evaluation) does not re-pay it.
	MemBudget int64
}

// reader is the one read path of the package: Engine, Materialized, and
// every prepared handle answer queries through read, which owns the only
// copy of the answer-cache protocol.  A reader is immutable after
// construction and safe for concurrent use; whether a read takes a lock is
// decided by its snapshot source alone (an Engine's memoized model sits
// behind the engine's RWMutex, a view's published snapshot behind nothing).
type reader struct {
	// snapshot returns the model a read solves against.
	snapshot func(ctx context.Context) (*store.DB, error)
	// compile and exec are set on WithMagic engines only: compile returns
	// the magic form of a positive literal on a derived predicate (nil for
	// any other literal, which is answered from the snapshot), and exec
	// evaluates a form for the given constants under the engine's read lock.
	compile func(lit ast.Literal, shared bool) (*magic.Prepared, error)
	exec    func(ctx context.Context, pr *magic.Prepared, consts []term.Term, o ReadOpts, st *eval.Stats) ([][]term.Term, error)

	// cache memoizes the answers of cache-shaped literals (see
	// canonicalLit); disabled, not nil, under WithoutQueryCache.
	cache *qcache.Cache
	// cones maps every derived predicate to its dependency cone; see cone.
	cones    map[string]map[string]bool
	deadline time.Duration

	// sink is the WithStats counter sink (nil on views and when unset).
	// Each read counts into a Stats of its own and merges it under sinkMu.
	sink   *eval.Stats
	sinkMu sync.Mutex
}

// newReader builds a reader over a snapshot source under the engine
// configuration's answer-cache switch and deadline.
func (c *config) newReader(snapshot func(context.Context) (*store.DB, error), cones map[string]map[string]bool) *reader {
	cap := answerCacheCap
	if c.noQueryCache {
		cap = 0
	}
	return &reader{snapshot: snapshot, cache: qcache.New(cap), cones: cones, deadline: c.deadline}
}

// withDeadline layers the deadline d, when positive, onto ctx.  The
// returned cancel func must always be called.
func withDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// dependencyCones computes, for every derived predicate of p, the set of
// predicates (EDB and IDB, itself included) reachable from it through p's
// rules.
func dependencyCones(p *ast.Program) map[string]map[string]bool {
	deps := map[string][]string{}
	for _, r := range p.Rules {
		if r.IsFact() {
			continue
		}
		ds := deps[r.Head.Pred]
		for _, l := range r.Body {
			if !layering.IsBuiltin(l.Pred) {
				ds = append(ds, l.Pred)
			}
		}
		deps[r.Head.Pred] = ds
	}
	cones := make(map[string]map[string]bool, len(deps))
	for pred := range deps {
		out := map[string]bool{pred: true}
		stack := []string{pred}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range deps[cur] {
				if !out[q] {
					out[q] = true
					stack = append(stack, q)
				}
			}
		}
		cones[pred] = out
	}
	return cones
}

// cone returns the dependency cone of pred: an update to any predicate in
// it may change the answers of a query on pred.  A base relation's cone is
// itself.
func (r *reader) cone(pred string) map[string]bool {
	if c, ok := r.cones[pred]; ok {
		return c
	}
	return map[string]bool{pred: true}
}

// stats returns the counter sink of one read or evaluation and the func
// that merges it into the WithStats sink; both are nil/no-ops without one.
func (r *reader) stats() (*eval.Stats, func()) {
	if r.sink == nil {
		return nil, func() {}
	}
	st := new(eval.Stats)
	return st, func() {
		r.sinkMu.Lock()
		r.sink.Merge(st)
		r.sinkMu.Unlock()
	}
}

// query parses q and answers it.
func (r *reader) query(ctx context.Context, q string, o ReadOpts) (*Answers, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return r.read(ctx, query, nil, o)
}

// read answers a parsed query; form is the compiled magic form a prepared
// handle carries, nil otherwise.  A cache-shaped single literal is
// rewritten with positional variables ($0, $1, ...) so that every caller
// spelling of the same (predicate, adornment, constants) shares one cache
// entry and one compiled form; the answers are reported under the caller's
// names.  The invalidation generation is recorded BEFORE the snapshot is
// loaded: any update published after that point bumps it, so a fill
// computed against a superseded database is dropped by PutAt instead of
// being served as current.  A failed read is never cached — a deadline,
// row-limit, or budget breach must not poison later calls.
func (r *reader) read(ctx context.Context, query parser.Query, form *magic.Prepared, o ReadOpts) (*Answers, error) {
	d := o.Deadline
	if d <= 0 {
		d = r.deadline
	}
	ctx, cancel := withDeadline(ctx, d)
	defer cancel()
	st, merge := r.stats()
	defer merge()

	if len(query.Body) != 1 || !canonicalLit(query.Body[0]) {
		rows, err := r.compute(ctx, query.Body, form, false, o, st)
		if err != nil {
			return nil, err
		}
		return newAnswers(query.Body, rows, o.MaxRows)
	}
	lit := query.Body[0]
	canon := []ast.Literal{positional(lit)}
	key := qcache.Key{
		Pred:   lit.Pred,
		Adorn:  shape(lit),
		Consts: qcache.ConstsKey(groundArgs(lit)),
	}
	ent, hit := r.cache.Get(key)
	if hit {
		if st != nil {
			st.CacheHits++
		}
	} else {
		gen := r.cache.Gen()
		rows, err := r.compute(ctx, canon, form, true, o, st)
		if err != nil {
			return nil, err
		}
		ent = &qcache.Entry{Sols: rows, Cone: r.cone(lit.Pred)}
		r.cache.PutAt(key, ent, gen)
	}
	return newAnswers(query.Body, ent.Sols, o.MaxRows)
}

// compute evaluates body — by the magic pipeline when the reader has one
// and the body is a literal it covers, else by solving against the
// snapshot.  shared marks a positional literal, whose compiled form may be
// shared with every query of the same predicate and adornment.
func (r *reader) compute(ctx context.Context, body []ast.Literal, form *magic.Prepared, shared bool, o ReadOpts, st *eval.Stats) ([][]term.Term, error) {
	if form == nil && r.compile != nil && len(body) == 1 {
		var err error
		if form, err = r.compile(body[0], shared); err != nil {
			return nil, err
		}
	}
	if form != nil {
		return r.exec(ctx, form, groundArgs(body[0]), o, st)
	}
	snap, err := r.snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return eval.SolveLimitsCtx(ctx, body, snap, eval.SolveLimits{MaxSolutions: o.MaxRows, MemBudget: o.MemBudget})
}

// canonicalLit reports whether a query literal is cache-shaped: positive,
// every argument either ground or a variable, and no variable repeated.
// Only then do (predicate, adornment, constants) fully determine the
// answers, so only such queries share compiled forms and cache entries;
// anything else (repeated variables add equality constraints, compound
// patterns add structure) is evaluated as written, uncached.
func canonicalLit(l ast.Literal) bool {
	if l.Negated {
		return false
	}
	seen := map[term.Var]bool{}
	for _, a := range l.Args {
		if v, ok := a.(term.Var); ok {
			if seen[v] {
				return false
			}
			seen[v] = true
			continue
		}
		if !term.IsGround(a) {
			return false
		}
	}
	return true
}

// positional returns the cache-shaped literal l with the named variable at
// argument position i renamed $i.  An anonymous variable stays anonymous,
// so l and its positional form have the same answer columns.
func positional(l ast.Literal) ast.Literal {
	out := ast.Literal{Pred: l.Pred, Args: make([]term.Term, len(l.Args))}
	for i, a := range l.Args {
		if v, ok := a.(term.Var); ok && !v.Anonymous() {
			a = term.Var("$" + strconv.Itoa(i))
		}
		out.Args[i] = a
	}
	return out
}

// shape is the adornment of a cache-shaped literal with its anonymous
// positions marked '_': they are not answer columns, so p(X, _) and
// p(X, Y) share neither a cache entry nor a compiled form.
func shape(l ast.Literal) string {
	s := []byte(magic.AdornQuery(l))
	for i, a := range l.Args {
		if v, ok := a.(term.Var); ok && v.Anonymous() {
			s[i] = '_'
		}
	}
	return string(s)
}

// groundArgs returns l's ground arguments in position order: the constants
// that key the answer cache and seed a compiled magic form, whose bound
// positions are exactly the ground ones.
func groundArgs(l ast.Literal) []term.Term {
	var out []term.Term
	for _, a := range l.Args {
		if term.IsGround(a) {
			out = append(out, a)
		}
	}
	return out
}

// PreparedQuery is a query compiled once for repeated execution: the parse,
// the parameter analysis and — on a WithMagic engine — the adornment,
// magic rewrite, and stratification are done at Prepare time, and each Exec
// splices concrete constants into the precompiled form.  Engine.Prepare and
// Materialized.Prepare return the same handle type; an Exec reads whatever
// its origin reads (the engine's current database, or the view's snapshot
// current at its start) through the same answer cache as Query.  A
// PreparedQuery is immutable and safe for concurrent Exec from any number
// of goroutines.
type PreparedQuery struct {
	r     *reader
	query parser.Query
	// boundPos are the query-literal argument positions Exec arguments
	// bind, ascending (the ground positions of the prepared query).
	boundPos []int
	// form is the compiled magic form; nil when Exec answers from the
	// snapshot instead (no WithMagic, multi-literal, negated or
	// base-relation query).
	form *magic.Prepared
}

// PreparedView is PreparedQuery under the name Materialized.Prepare returns
// it by.
type PreparedView = PreparedQuery

// prepare compiles a parsed query for repeated execution.  For a
// single-literal query the ground argument positions become the Exec
// parameters: Exec with no arguments re-runs the original constants, Exec
// with N ground terms binds them at those positions in order.  The binding
// pattern is fixed at Prepare time; the values are not.  Multi-literal
// queries prepare with zero parameters.
func (r *reader) prepare(query parser.Query) (*PreparedQuery, error) {
	pq := &PreparedQuery{r: r, query: query}
	if len(query.Body) != 1 {
		return pq, nil
	}
	lit := query.Body[0]
	for i, a := range lit.Args {
		if term.IsGround(a) {
			pq.boundPos = append(pq.boundPos, i)
		}
	}
	if r.compile != nil {
		shared := canonicalLit(lit)
		if shared {
			lit = positional(lit)
		}
		var err error
		if pq.form, err = r.compile(lit, shared); err != nil {
			return nil, err
		}
	}
	return pq, nil
}

// NumArgs is the number of arguments Exec accepts: the count of ground
// argument positions in the prepared query.
func (pq *PreparedQuery) NumArgs() int { return len(pq.boundPos) }

// Query returns the prepared query's source form.
func (pq *PreparedQuery) Query() string { return pq.query.String() }

// Exec runs the prepared query, binding args (which must be ground) at the
// prepared parameter positions; no args re-runs the original constants.
func (pq *PreparedQuery) Exec(args ...Term) (*Answers, error) {
	return pq.ExecOpts(context.Background(), ReadOpts{}, args...)
}

// ExecCtx is Exec under a context, with the cancellation semantics of
// QueryCtx.
func (pq *PreparedQuery) ExecCtx(ctx context.Context, args ...Term) (*Answers, error) {
	return pq.ExecOpts(ctx, ReadOpts{}, args...)
}

// ExecOpts is Exec under a context and per-call resource bounds.  The
// engine's WithDeadline, WithLimit, and WithMemBudget apply exactly as they
// do to QueryCtx, and a breach aborts with the same taxonomy error.  A
// wrong argument count or a non-ground argument is a caller mistake,
// reported before anything is evaluated.
func (pq *PreparedQuery) ExecOpts(ctx context.Context, o ReadOpts, args ...Term) (*Answers, error) {
	query := pq.query
	if len(args) > 0 {
		if len(args) != len(pq.boundPos) {
			return nil, &lderr.ArgError{Msg: fmt.Sprintf("prepared query takes %d arguments, got %d", len(pq.boundPos), len(args))}
		}
		lit := query.Body[0]
		spliced := append([]term.Term(nil), lit.Args...)
		for i, pos := range pq.boundPos {
			// Apply evaluates interpreted functors and fails on any variable.
			v, err := unify.Apply(args[i], unify.NewBindings())
			if err != nil {
				return nil, &lderr.ArgError{Msg: fmt.Sprintf("prepared argument %s is not a ground term: %v", args[i], err)}
			}
			spliced[pos] = v
		}
		query = parser.Query{Body: []ast.Literal{{Negated: lit.Negated, Pred: lit.Pred, Args: spliced}}}
	}
	return pq.r.read(ctx, query, pq.form, o)
}
