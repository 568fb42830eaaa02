package ldl1

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// answerCacheCap bounds a handle's answer cache.  Entries hold solution
// slices, so the cap trades memory against repeated-query latency.
const answerCacheCap = 128

// formCap bounds a handle's memo of compiled forms.  A magic form costs one
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

// initReads gives e an empty answer cache and form memo, both switched off
// under WithoutQueryCache.
func (e *Engine) initReads() {
	e.cache, e.forms = qcache.New(answerCacheCap), map[qcache.Key]*form{}
	if e.cfg.noQueryCache {
		e.cache, e.forms = qcache.New(0), nil
	}
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
func (e *Engine) cone(pred string) map[string]bool {
	if c, ok := e.cones[pred]; ok {
		return c
	}
	return map[string]bool{pred: true}
}

// read answers a parsed query body under its answer-cache key and ground
// arguments (see readKey); f is the form a prepared handle keeps, nil
// otherwise.  A cache-shaped single literal is keyed by predicate, shape
// and constants, so every caller spelling of it shares one cache entry and
// one compiled form: its rows are in argument order, whatever its variables
// are named, and are reported under the caller's names.  The invalidation
// generation is recorded BEFORE the snapshot is loaded: any update published
// after that point bumps it, so a fill computed against a superseded
// database is dropped by PutAt instead of being served as current.  A failed
// read is never cached — a deadline, row-limit, or budget breach must not
// poison later calls.
func (e *Engine) read(ctx context.Context, body []ast.Literal, f *form, key qcache.Key, consts []term.Term, o ReadOpts) (*Answers, error) {
	d := o.Deadline
	if d <= 0 {
		d = e.cfg.deadline
	}
	ctx, cancel := withDeadline(ctx, d)
	defer cancel()
	st, merge := e.reads.stats()
	defer merge()

	if key.Pred != "" {
		if ent, hit := e.cache.Get(key); hit {
			if st != nil {
				st.CacheHits++
			}
			return newAnswers(body, ent.Sols, o.MaxRows)
		}
	}
	gen := e.cache.Gen()
	// A miss evaluates a copy of consts, so that on a hit the caller's
	// slice (a prepared Exec's arguments) does not escape.
	rows, err := e.compute(ctx, body, f, key, slices.Clone(consts), o, st)
	if err != nil {
		return nil, err
	}
	if key.Pred != "" {
		e.cache.PutAt(key, &qcache.Entry{Sols: rows, Cone: e.cone(key.Pred)}, gen)
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
func (e *Engine) compile(body []ast.Literal, key qcache.Key) (*form, error) {
	key.Consts = ""
	if !parametric(body) || e.forms == nil {
		key = qcache.Key{} // the memo holds no zero key
	}
	e.formMu.Lock()
	f := e.forms[key]
	e.formMu.Unlock()
	if f != nil {
		return f, nil
	}
	f = new(form)
	if e.magic && len(body) == 1 {
		var err error
		if f.magic, err = e.magicForm(body[0]); err != nil {
			return nil, err
		}
	}
	if f.magic == nil {
		f.query = eval.NewQuery(body)
	}
	if key.Pred != "" {
		e.formMu.Lock()
		defer e.formMu.Unlock()
		for old := range e.forms { // evict an arbitrary form
			if len(e.forms) < formCap {
				break
			}
			delete(e.forms, old)
		}
		e.forms[key] = f
	}
	return f, nil
}

// compute evaluates body by f — nil: the form compile returns for body and
// key — binding its parameters to consts, body's ground arguments.
func (e *Engine) compute(ctx context.Context, body []ast.Literal, f *form, key qcache.Key, consts []term.Term, o ReadOpts, st *eval.Stats) ([][]term.Term, error) {
	if f == nil {
		var err error
		if f, err = e.compile(body, key); err != nil {
			return nil, err
		}
	}
	var args []term.Term // nil: the constants f was compiled with
	if parametric(body) {
		args = consts
	}
	if f.magic != nil {
		return e.execMagic(ctx, f.magic, args, o, st)
	}
	v, err := e.materialized(ctx)
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
// and each Exec binds concrete constants to the form's parameters.  An
// Exec reads what its engine's Query reads (the model's snapshot current at
// its start, or on a WithMagic engine a magic form over the extensional
// database) through the same answer cache as Query.  A PreparedQuery is
// immutable and safe for concurrent Exec from any number of goroutines.
type PreparedQuery struct {
	e     *Engine
	query parser.Query
	// consts are the prepared query's ground arguments, in position order:
	// the parameters Exec arguments replace.
	consts []term.Term
	// key is the answer-cache key of the prepared query without its
	// constants: the shape every Exec of a cache-shaped literal keys by.
	key qcache.Key
	// form is the compiled form; nil for a negated or built-in literal,
	// whose constants are not parameters, so each Exec compiles its own.
	form *form
}

// PreparedView is another name of PreparedQuery.
type PreparedView = PreparedQuery

// prepare compiles a parsed query for repeated execution.  For a
// single-literal query the ground argument positions become the Exec
// parameters: Exec with no arguments re-runs the original constants, Exec
// with N ground terms binds them at those positions in order.  The binding
// pattern is fixed at Prepare time; the values are not.  Multi-literal
// queries prepare with zero parameters.
func (e *Engine) prepare(query parser.Query) (*PreparedQuery, error) {
	pq := &PreparedQuery{e: e, query: query}
	body := query.Body
	pq.key, pq.consts = readKey(body)
	pq.key.Consts = ""
	if len(body) == 1 && !parametric(body) {
		return pq, nil
	}
	var err error
	pq.form, err = e.compile(body, qcache.Key{})
	return pq, err
}

// NumArgs is the number of arguments Exec accepts: the count of ground
// argument positions in the prepared query.
func (pq *PreparedQuery) NumArgs() int { return len(pq.consts) }

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
	if len(args) == 0 {
		args = pq.consts
	} else if len(args) != len(pq.consts) {
		return nil, &lderr.ArgError{Msg: fmt.Sprintf("prepared query takes %d arguments, got %d", len(pq.consts), len(args))}
	} else {
		var buf [4]term.Term
		var err error
		if args, err = evalArgs(buf[:0], args); err != nil {
			return nil, err
		}
	}
	body := pq.query.Body
	if pq.form == nil {
		// A negated or built-in literal's constants are not parameters:
		// the literal with args in place compiles its own form.
		lit := body[0]
		spliced, next := slices.Clone(lit.Args), args
		for i, a := range spliced {
			if term.IsGround(a) {
				spliced[i], next = next[0], next[1:]
			}
		}
		body = []ast.Literal{{Negated: lit.Negated, Pred: lit.Pred, Args: spliced}}
		key, consts := readKey(body)
		return pq.e.read(ctx, body, nil, key, consts, o)
	}
	key := pq.key
	if key.Pred != "" {
		key.Consts = qcache.ConstsKey(args)
	}
	return pq.e.read(ctx, body, pq.form, key, args, o)
}

// evalArgs appends to buf the values of Exec arguments, with their
// interpreted functors evaluated (§2.2: 1+1 is 2), failing on any variable.
func evalArgs(buf, args []term.Term) ([]term.Term, error) {
	var b unify.Bindings
	for _, a := range args {
		v, err := unify.Apply(a, &b)
		if err != nil {
			return nil, &lderr.ArgError{Msg: fmt.Sprintf("prepared argument %s is not a ground term: %v", a, err)}
		}
		buf = append(buf, v)
	}
	return buf, nil
}
