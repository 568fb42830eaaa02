package ldl1

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// answerCacheCap bounds a reader's answer cache.  Entries hold solution
// slices, so the cap trades memory against repeated-query latency.
const answerCacheCap = 128

// formCap bounds a reader's memo of compiled forms.  A magic form costs one
// adorn + rewrite + stratify, so the cap only matters for workloads cycling
// through many distinct (predicate, shape) pairs.
const formCap = 32

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
// decided by its snapshot source alone (an Engine's model behind the
// engine's RWMutex, a view's published snapshot behind nothing).
type reader struct {
	// view returns the view whose current snapshot a read solves against.
	view func(ctx context.Context) (*incr.Materialized, error)
	// magicForm and exec are set on WithMagic engines only: magicForm
	// returns the magic form of a positive literal on a derived predicate
	// (nil for any other literal, which is answered from the snapshot), and
	// exec evaluates a magic form for the given constants under the engine's
	// read lock.
	magicForm func(lit ast.Literal) (*magic.Prepared, error)
	exec      func(ctx context.Context, pr *magic.Prepared, consts []term.Term, o ReadOpts, st *eval.Stats) ([][]term.Term, error)

	// formMu guards forms, the compiled forms of cache-shaped database
	// literals by predicate and shape (an answer-cache key without its
	// constants), at most formCap of them; nil under WithoutQueryCache.
	formMu sync.Mutex
	forms  map[qcache.Key]*form

	// cache memoizes the answers of cache-shaped literals (see
	// canonicalLit); disabled, not nil, under WithoutQueryCache.
	cache *qcache.Cache
	// cones maps every derived predicate to its dependency cone; see cone.
	cones    map[string]map[string]bool
	deadline time.Duration

	// sink is the engine's WithStats sink; nil on views.
	sink *sink
}

// sink is a WithStats sink and the lock every merge into it takes.
type sink struct {
	mu     sync.Mutex
	counts *eval.Stats
}

// stats returns the counters of one read, load or transaction and the func
// that merges them into the sink; nil and a no-op without a sink.
func (k *sink) stats() (*eval.Stats, func()) {
	if k == nil || k.counts == nil {
		return nil, func() {}
	}
	st := new(eval.Stats)
	return st, func() {
		k.mu.Lock()
		k.counts.Merge(st)
		k.mu.Unlock()
	}
}

// newReader builds a reader over a snapshot source under the engine
// configuration's deadline and cache switch, which turns off the answer
// cache and the form memo alike.
func (c *config) newReader(view func(context.Context) (*incr.Materialized, error), cones map[string]map[string]bool) *reader {
	r := &reader{view: view, cache: qcache.New(answerCacheCap), forms: map[qcache.Key]*form{}, cones: cones, deadline: c.deadline}
	if c.noQueryCache {
		r.cache, r.forms = qcache.New(0), nil
	}
	return r
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

// query parses q and answers it.
func (r *reader) query(ctx context.Context, q string, o ReadOpts) (*Answers, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return r.read(ctx, query, nil, o)
}

// read answers a parsed query; f is the form a prepared handle keeps, nil
// otherwise.  A cache-shaped single literal is keyed by predicate, shape
// and constants, so every caller spelling of it shares one cache entry and
// one compiled form: its rows are in argument order, whatever its variables
// are named, and are reported under the caller's names.  The invalidation
// generation is recorded BEFORE the snapshot is loaded: any update published
// after that point bumps it, so a fill computed against a superseded
// database is dropped by PutAt instead of being served as current.  A failed
// read is never cached — a deadline, row-limit, or budget breach must not
// poison later calls.
func (r *reader) read(ctx context.Context, query parser.Query, f *form, o ReadOpts) (*Answers, error) {
	d := o.Deadline
	if d <= 0 {
		d = r.deadline
	}
	ctx, cancel := withDeadline(ctx, d)
	defer cancel()
	st, merge := r.sink.stats()
	defer merge()

	body := query.Body
	key, consts := readKey(body)
	if key.Pred != "" {
		if ent, hit := r.cache.Get(key); hit {
			if st != nil {
				st.CacheHits++
			}
			return newAnswers(body, ent.Sols, o.MaxRows)
		}
	}
	gen := r.cache.Gen()
	rows, err := r.compute(ctx, body, f, key, consts, o, st)
	if err != nil {
		return nil, err
	}
	if key.Pred != "" {
		r.cache.PutAt(key, &qcache.Entry{Sols: rows, Cone: r.cone(key.Pred)}, gen)
	}
	return newAnswers(body, rows, o.MaxRows)
}

// form is a query compiled once for its binding pattern: the magic form of
// a positive literal on a derived predicate of a WithMagic engine, or else
// a read of the snapshot.  The form of a parametric body takes its ground
// arguments per read, so it serves every query of its predicate and shape.
type form struct {
	magic *magic.Prepared
	query *eval.Query
}

// parametric reports whether body is one positive database literal, whose
// ground arguments eval.NewQuery makes parameters and a magic form binds to
// its seed.
func parametric(body []ast.Literal) bool {
	return len(body) == 1 && !body[0].Negated && !layering.IsBuiltin(body[0].Pred)
}

// compile returns the form of body.  Under a non-zero answer-cache key, the
// form of a parametric body comes from the memo, compiled on a miss.
func (r *reader) compile(body []ast.Literal, key qcache.Key) (*form, error) {
	key.Consts = ""
	if !parametric(body) || r.forms == nil {
		key = qcache.Key{} // the memo holds no zero key
	}
	r.formMu.Lock()
	f := r.forms[key]
	r.formMu.Unlock()
	if f != nil {
		return f, nil
	}
	f = new(form)
	if r.magicForm != nil && len(body) == 1 {
		var err error
		if f.magic, err = r.magicForm(body[0]); err != nil {
			return nil, err
		}
	}
	if f.magic == nil {
		f.query = eval.NewQuery(body)
	}
	if key.Pred != "" {
		r.formMu.Lock()
		defer r.formMu.Unlock()
		for old := range r.forms { // evict an arbitrary form
			if len(r.forms) < formCap {
				break
			}
			delete(r.forms, old)
		}
		r.forms[key] = f
	}
	return f, nil
}

// compute evaluates body by f — nil: the form compile returns for body and
// key — binding its parameters to consts, body's ground arguments.
func (r *reader) compute(ctx context.Context, body []ast.Literal, f *form, key qcache.Key, consts []term.Term, o ReadOpts, st *eval.Stats) ([][]term.Term, error) {
	if f == nil {
		var err error
		if f, err = r.compile(body, key); err != nil {
			return nil, err
		}
	}
	var args []term.Term // nil: the constants f was compiled with
	if parametric(body) {
		args = consts
	}
	if f.magic != nil {
		return r.exec(ctx, f.magic, args, o, st)
	}
	v, err := r.view(ctx)
	if err != nil {
		return nil, err
	}
	return f.query.Solve(ctx, v.Snapshot(), args, eval.SolveLimits{MaxSolutions: o.MaxRows, MemBudget: o.MemBudget})
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

// readKey returns the answer-cache key of a read of body — zero unless body
// is one cache-shaped literal — and, for one literal, its ground arguments:
// the key's constants and the parameters of a parametric form.
func readKey(body []ast.Literal) (qcache.Key, []term.Term) {
	if len(body) != 1 {
		return qcache.Key{}, nil
	}
	lit := body[0]
	consts := groundArgs(lit)
	if !canonicalLit(lit) {
		return qcache.Key{}, consts
	}
	return qcache.Key{Pred: lit.Pred, Adorn: shape(lit), Consts: qcache.ConstsKey(consts)}, consts
}

// shape is the adornment of a cache-shaped literal (magic.AdornQuery: 'b'
// for a ground argument, 'f' for a variable) with its anonymous positions
// marked '_': they are not answer columns, so p(X, _) and p(X, Y) share
// neither a cache entry nor a compiled form.
func shape(l ast.Literal) string {
	var s strings.Builder
	s.Grow(len(l.Args))
	for _, a := range l.Args {
		v, isVar := a.(term.Var)
		switch {
		case isVar && v.Anonymous():
			s.WriteByte('_')
		case term.IsGround(a):
			s.WriteByte('b')
		default:
			s.WriteByte('f')
		}
	}
	return s.String()
}

// groundArgs returns l's ground arguments in position order: the constants
// that key the answer cache and bind the parameters of a parametric form,
// which are exactly the ground positions.
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
// the parameter analysis and the compiled form — on a WithMagic engine the
// adornment, magic rewrite, and stratification — are done at Prepare time,
// and each Exec binds concrete constants to the form's parameters.
// Engine.Prepare and Materialized.Prepare return the same handle type; an
// Exec reads whatever its origin reads (the engine's current database, or
// the view's snapshot current at its start) through the same answer cache
// as Query.  A PreparedQuery is immutable and safe for concurrent Exec from
// any number of goroutines.
type PreparedQuery struct {
	r     *reader
	query parser.Query
	// boundPos are the query-literal argument positions Exec arguments
	// bind, ascending (the ground positions of the prepared query).
	boundPos []int
	// form is the compiled form; nil for a negated or built-in literal,
	// whose constants are not parameters, so each Exec compiles its own.
	form *form
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
	body := query.Body
	if len(body) == 1 {
		for i, a := range body[0].Args {
			if term.IsGround(a) {
				pq.boundPos = append(pq.boundPos, i)
			}
		}
	}
	if len(body) == 1 && !parametric(body) {
		return pq, nil
	}
	var err error
	pq.form, err = r.compile(body, qcache.Key{})
	return pq, err
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
