package ldl1

import (
	"context"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldl1/internal/analyze"
	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/rewrite"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Strategy selects the fixpoint algorithm (§3.2).
type Strategy = eval.Strategy

// Evaluation strategies.
const (
	// SemiNaive restricts recursive rule applications to facts derived
	// in the previous iteration (the default).
	SemiNaive = eval.SemiNaive
	// Naive is the literal R_{i+1}(M) = ∪ r(R_i(M)) ∪ R_i(M) iteration.
	Naive = eval.Naive
)

// Stats collects evaluation counters; pass one via WithStats.
type Stats = eval.Stats

// Option configures an Engine.
type Option func(*config)

type config struct {
	strategy      Strategy
	stats         *Stats
	magic         bool
	supplementary bool
	noIndexes     bool
	noRewrite     bool
	noReorder     bool
	noQueryCache  bool
	limit         int
	deadline      time.Duration
	memBudget     int64
	strict        bool
}

// WithStrategy selects naive or semi-naive evaluation.
func WithStrategy(s Strategy) Option { return func(c *config) { c.strategy = s } }

// WithStats attaches a counter sink.  Run, Query, prepared Exec,
// Materialize and every transaction — of the engine and of the clones
// Materialize returns, whose reads do not count — each count into a Stats
// of their own and merge it into the sink under one lock when they finish,
// so concurrent reads and writes may share one sink; read it once they have
// returned.
func WithStats(s *Stats) Option { return func(c *config) { c.stats = s } }

// WithMagic enables Generalized Magic Sets query compilation (§6):
// Query then rewrites the program per query and evaluates only the
// relevant portion of the database.  Run is unaffected.
func WithMagic(on bool) Option { return func(c *config) { c.magic = on } }

// WithSupplementaryMagic selects the supplementary-magic-sets rewriting
// (the full [BR87] algorithm: rule prefixes are materialized once in
// sup predicates).  Implies WithMagic(true).
func WithSupplementaryMagic() Option {
	return func(c *config) {
		c.magic = true
		c.supplementary = true
	}
}

// magicVariant is the §6 rewriting a WithMagic engine runs.
func (c config) magicVariant() magic.Variant {
	if c.supplementary {
		return magic.Supplementary
	}
	return magic.Basic
}

// WithLimit bounds the number of facts one evaluation — a Run, a magic-sets
// read, or a transaction — may derive; it aborts with *lderr.LimitError
// beyond it, and Run does so whatever the order of loads and reads.  A
// termination guard for programs whose function symbols could generate
// unbounded terms.
func WithLimit(maxDerived int) Option { return func(c *config) { c.limit = maxDerived } }

// WithDeadline bounds the wall-clock time of every Run, Query, prepared
// Exec and transaction (a read may replace it through
// ReadOpts.Deadline).  A breached deadline aborts the fixpoint at
// the next evaluation round with an error satisfying both
// errors.Is(err, lderr.DeadlineExceeded) and
// errors.Is(err, context.DeadlineExceeded); the engine's state is unchanged.
// The deadline composes with an explicit context passed to the ...Ctx
// variants — whichever expires first wins.
func WithDeadline(d time.Duration) Option { return func(c *config) { c.deadline = d } }

// WithMemBudget bounds the approximate bytes of derived facts retained by
// one evaluation (a Run, or a magic-sets read; answering from an
// already-computed model evaluates nothing); beyond it evaluation aborts
// with *lderr.MemBudgetError.  Under a budget a load drops the engine's
// model, since a transaction inserting it would not measure bytes.
// The estimate is deterministic (a structural walk of each derived fact),
// so a breaching program fails identically across runs.
func WithMemBudget(bytes int64) Option { return func(c *config) { c.memBudget = bytes } }

// WithoutIndexes disables per-column hash indexes (for ablation).
func WithoutIndexes() Option { return func(c *config) { c.noIndexes = true } }

// WithoutReorder disables the cost-based join planner: body literals run in
// the static most-bound-columns order of the seed engine.  The computed
// answers are identical; only the join schedule (and hence FullScans /
// IndexHits) changes.  An ablation switch for benchmarks.
func WithoutReorder() Option { return func(c *config) { c.noReorder = true } }

// WithoutQueryCache disables the answer cache and the memo of compiled query
// forms, the engine's and every clone's: every query recompiles and
// re-evaluates from scratch.  An ablation switch for benchmarks; Prepare
// still works and still skips recompilation through its own handle.
func WithoutQueryCache() Option { return func(c *config) { c.noQueryCache = true } }

// WithoutRewrite disables the automatic LDL1.5 → LDL1 compilation; programs
// using §4 constructs are then rejected by the well-formedness check.
func WithoutRewrite() Option { return func(c *config) { c.noRewrite = true } }

// Engine is one handle on a checked LDL1 program: its extensional database
// of record, which starts as the facts the program text gives its base
// predicates, and their standard minimal model M_n (Theorem 1), kept as an
// incrementally maintained view that the first read or write builds.
// AddFact, AddFacts and AddDB only queue their facts, and the next read or
// write inserts the queue as one transaction under its own context.
// Assert, Retract and Update apply a transaction at once by delta
// propagation (semi-naive insertion rules, delete-and-rederive for
// retractions, ≡-class regrouping for grouping heads) instead of a
// from-scratch fixpoint, and return its net change; a WithMagic engine
// whose reads have not needed the model applies them to its extensional
// database only.  Materialize returns an O(1) clone of the handle.
//
// Concurrency: writes, and a read that finds facts queued, serialize on a
// write lock.  A read with nothing queued takes no lock: it solves against
// the snapshot published when it starts, and snapshots are immutable, so it
// never observes half a transaction.  A magic-sets read (WithMagic) and
// Explain clone the extensional database under a read lock and evaluate
// the clone without it.  The answer cache and form memo carry
// their own locks and publish only fully built, immutable entries.
type Engine struct {
	cfg      config
	source   *ast.Program // program as written (after LDL1.5 expansion)
	original *ast.Program // program as written, before expansion
	// facts are those source gives its base predicates (no rule derives
	// them), the initial edb, which Explain labels [fact].  prog is source
	// admitted, without them: what the view and Explain run.  rules is
	// source without them: what a magic form compiles from.
	facts []*term.Fact
	prog  *eval.Program
	rules *ast.Program
	mu    sync.RWMutex // guards edb, known, view and pending
	edb   *store.DB
	// known holds the predicates of the facts loaded and asserted: the
	// extensional predicates of type inference and the vet pass.
	known map[string]bool
	// stored counts the derived predicates among known: a magic form
	// compiled when it read less is stale (form.stale).
	stored  atomic.Int32
	view    *incr.Materialized // nil until a read or write builds it, and once dropped
	pending []*term.Fact       // loaded since the view was last brought up to date
	// current is view while nothing is pending, else nil: what a read
	// answers from without taking mu.
	current atomic.Pointer[incr.Materialized]
	sink    *sink // the WithStats sink, which evaluations and writes count into

	// The read path (reader.go), which every Query and prepared Exec takes.
	// A read solves against the view's snapshot or, when magic is set
	// (WithMagic, never on a clone), runs a magic form against edb.  Reads
	// count into reads: sink, or nil on a clone.
	magic bool
	reads *sink
	cones map[string]map[string]bool // each derived predicate's dependency cone
	// cache memoizes the answers of cache-shaped literals (canonicalLit).
	cache *qcache.Cache
	// formMu guards forms, the compiled forms of cache-shaped database
	// literals by predicate and shape, at most formCap of them; nil under
	// WithoutQueryCache.
	formMu sync.Mutex
	forms  map[qcache.Key]*form
}

// Materialized is Engine under the name Materialize returns it by.
type Materialized = Engine

// New parses an LDL1 (or LDL1.5) program — rules and facts — compiles any
// §4 extension constructs away, and verifies well-formedness (§2.1, §7)
// and admissibility (§3.1).
func New(src string, opts ...Option) (*Engine, error) {
	p, err := parser.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	return NewFromAST(p, opts...)
}

// NewFromAST builds an engine from an already-parsed program; see New.
func NewFromAST(p *ast.Program, opts ...Option) (*Engine, error) {
	e := &Engine{original: p}
	for _, o := range opts {
		o(&e.cfg)
	}
	compiled := p
	if !e.cfg.noRewrite && rewrite.NeedsRewrite(p) {
		var err error
		compiled, err = rewrite.Rewrite(p)
		if err != nil {
			return nil, err
		}
	}
	prog, err := eval.Admit(compiled)
	if err != nil {
		return nil, err
	}
	if e.cfg.strict {
		if ds := analyze.Program(p, nil, analyze.Options{}); len(ds) > 0 {
			return nil, &VetError{Diagnostics: ds}
		}
	}
	e.source, e.cones = compiled, dependencyCones(compiled)
	var fixed []*term.Fact
	for _, f := range prog.Facts() {
		if _, derived := e.cones[f.Pred]; derived {
			fixed = append(fixed, f)
		} else {
			e.facts = append(e.facts, f)
		}
	}
	e.prog, e.rules = prog.WithFacts(fixed), ast.NewProgram()
	for _, r := range compiled.Rules {
		if _, derived := e.cones[r.Head.Pred]; derived || !r.IsFact() {
			e.rules.Add(r)
		}
	}
	e.edb, e.known = store.NewDB(), map[string]bool{}
	e.edb.UseIndexes = !e.cfg.noIndexes
	e.edb.LoadFacts(e.facts, store.LoadOpts{})
	e.sink = &sink{counts: e.cfg.stats}
	e.magic, e.reads = e.cfg.magic, e.sink
	e.initReads()
	return e, nil
}

// Materialize returns a second handle on the engine's program, database
// and model: an O(1) clone, brought up to date as Run brings the model, so
// it evaluates nothing when a read has built the model and no load has come
// since.  From then on the two are apart: a load or transaction on either
// does not reach the other.  The clone keeps the engine's options and its
// WithStats sink, which its transactions count into; it answers every read
// from its own model, never through a magic form, and its reads count into
// no sink.
func (e *Engine) Materialize() (*Engine, error) {
	c := &Engine{cfg: e.cfg, source: e.source, original: e.original, prog: e.prog, rules: e.rules, facts: e.facts, sink: e.sink, cones: e.cones}
	_, err := e.sync(context.Background(), func(context.Context, *Stats) error {
		c.edb, c.known, c.view = e.edb.Clone(), maps.Clone(e.known), e.view.Clone()
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.current.Store(c.view)
	c.initReads()
	return c, nil
}

// Program returns the compiled program text (after LDL1.5 expansion).
func (e *Engine) Program() string { return e.source.String() }

// Strata returns the layer index of every predicate (§3.1) in the layering
// the engine evaluates by: predicates no rule derives in layer 0, then one
// layer per strongly connected component of the dependency graph.
func (e *Engine) Strata() map[string]int {
	return maps.Clone(e.prog.Layering().Stratum)
}

// IsPositive reports whether the compiled program is negation-free, in
// which case its minimal model is unique (§3, corollary to Theorem 1).
func (e *Engine) IsPositive() bool { return e.source.IsPositive() }

// knownPreds is the set of predicates of loaded and asserted facts — the
// only store input the type inference and the vet pass depend on.
func (e *Engine) knownPreds() map[string]bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return maps.Clone(e.known)
}

// Signatures returns the inferred per-predicate argument signatures of the
// program as written — the tooling surface behind vet -sigs and the REPL's
// :check.  Predicates whose facts live in the extensional store read as ⊤
// and are omitted.
func (e *Engine) Signatures() []types.PredSig {
	return analyze.Signatures(e.original, analyze.Options{KnownPreds: e.knownPreds()})
}

// evalOpts assembles the options of one evaluation under ctx, counting
// into st.
func (e *Engine) evalOpts(ctx context.Context, st *Stats) eval.Options {
	return eval.Options{
		Strategy:   e.cfg.strategy,
		Stats:      st,
		MaxDerived: e.cfg.limit,
		MemBudget:  e.cfg.memBudget,
		NoReorder:  e.cfg.noReorder,
		Ctx:        ctx,
	}
}

// Run computes the standard minimal model M_n of the program with respect
// to the extensional database (Theorem 1) and returns it: the one way to
// read the whole model.  The model is kept, and the next read inserts facts
// loaded since into it (see Engine).
func (e *Engine) Run() (*Model, error) {
	return e.RunCtx(context.Background())
}

// RunCtx is Run under a context: a canceled context or expired deadline
// aborts the fixpoint at the next evaluation round with lderr.Canceled or
// lderr.DeadlineExceeded, the extensional database is unchanged, and no
// partial model is kept.
func (e *Engine) RunCtx(ctx context.Context) (*Model, error) {
	v, err := e.materialized(ctx)
	if err != nil {
		return nil, err
	}
	return &Model{db: v.Snapshot()}, nil
}

// materialized returns the view brought up to date under ctx: the current
// one without a lock, else by sync.
func (e *Engine) materialized(ctx context.Context) (*incr.Materialized, error) {
	if v := e.current.Load(); v != nil {
		return v, nil
	}
	return e.sync(ctx, nil)
}

// sync brings the view up to date under the write lock, ctx and the
// engine's deadline — builds it by one evaluation if there is none, else
// inserts the facts queued since as one transaction — and then runs fn, if
// any, under the same lock, context and counters, which go to the sink.  A
// canceled context keeps the queue for the next read; any other failure,
// or a model past WithLimit, drops the view, and evaluation from scratch
// answers.
func (e *Engine) sync(ctx context.Context, fn func(ctx context.Context, st *Stats) error) (*incr.Materialized, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx, cancel := withDeadline(ctx, e.cfg.deadline)
	defer cancel()
	st, merge := e.sink.stats()
	defer merge()
	var err error
	if e.view != nil && len(e.pending) > 0 {
		if _, err = e.view.ApplyCtx(ctx, incr.Tx{Insert: e.pending, Stats: st}); err != nil && ctx.Err() != nil {
			return nil, err
		}
		if err != nil || e.cfg.limit > 0 && e.view.Derived() > e.cfg.limit {
			e.view = nil
		}
		e.pending = nil
	}
	if e.view == nil {
		if e.view, err = incr.From(e.prog, e.edb, e.evalOpts(ctx, st)); err != nil {
			return nil, err
		}
	}
	e.current.Store(e.view)
	if fn != nil {
		err = fn(ctx, st)
	}
	return e.view, err
}

// Query answers a conjunctive query ("ancestor(abe, W)", with or without
// the ?- prefix).  With WithMagic and a positive single-literal query on a
// derived predicate, the Generalized Magic Sets pipeline of §6 is used;
// otherwise the query is solved against the model.
func (e *Engine) Query(q string) (*Answers, error) {
	return e.QueryOpts(context.Background(), q, ReadOpts{})
}

// QueryCtx is Query under a context; cancellation semantics are those of
// RunCtx, for the magic-sets pipeline as well as the model's path.
func (e *Engine) QueryCtx(ctx context.Context, q string) (*Answers, error) {
	return e.QueryOpts(ctx, q, ReadOpts{})
}

// QueryOpts is QueryCtx under per-call resource bounds.  Cache-shaped
// single-literal queries are served from and fill the handle's answer
// cache.
func (e *Engine) QueryOpts(ctx context.Context, q string, o ReadOpts) (*Answers, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	key, consts := readKey(query.Body)
	return e.read(ctx, query.Body, nil, key, consts, o)
}

// Prepare compiles a query for repeated execution; see PreparedQuery.  The
// query's ground argument positions become the prepared parameters.
func (e *Engine) Prepare(q string) (*PreparedQuery, error) {
	query, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	if e.cfg.strict {
		// Under WithStrict the program itself was vetted clean at New, so
		// any diagnostic here is attributable to the query — e.g. an
		// LDL200 type clash or an LDL202 provably empty literal.  Codes
		// and positions (within the query text) match what Vet reports
		// for the same query appended to the program source.
		if ds := analyze.Program(e.original, []parser.Query{query}, analyze.Options{KnownPreds: e.knownPreds()}); len(ds) > 0 {
			return nil, &VetError{Diagnostics: ds}
		}
	}
	return e.prepare(query)
}

// CacheCounters reports the handle's answer-cache statistics: cumulative
// hits, misses, and evictions, plus the live entry count.  All zero when
// the engine was built with WithoutQueryCache.
func (e *Engine) CacheCounters() (hits, misses, evictions, entries int) {
	hits, misses, evictions = e.cache.Counters()
	return hits, misses, evictions, e.cache.Len()
}

// magicForm is the read path's magic compile step on a WithMagic engine: the
// magic form of a positive literal on a derived predicate, nil for any other
// literal.
func (e *Engine) magicForm(lit ast.Literal) (*magic.Prepared, error) {
	if _, derived := e.cones[lit.Pred]; !derived || lit.Negated {
		return nil, nil
	}
	return magic.PrepareVariant(e.rules, parser.Query{Body: []ast.Literal{lit}}, e.cfg.magicVariant(), e.storedDerived()...)
}

// storedDerived lists, sorted, the derived predicates a load or assert has
// given facts: the extensional database's facts a magic form reads besides
// the ones its rules derive.
func (e *Engine) storedDerived() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for p := range e.known {
		if _, derived := e.cones[p]; derived {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// execMagic is the read path's exec step on a WithMagic engine: one magic-sets
// evaluation of a compiled form against a clone of the extensional
// database, taken under the read lock, so a concurrent write lands strictly
// before or after it and the saturation runs without the lock.
func (e *Engine) execMagic(ctx context.Context, pr *magic.Prepared, consts []term.Term, o ReadOpts, st *Stats) (eval.Table, error) {
	e.mu.RLock()
	edb := e.edb.Clone()
	e.mu.RUnlock()
	opts := e.evalOpts(ctx, st)
	if o.MemBudget > 0 {
		opts.MemBudget = o.MemBudget
	}
	return pr.Table(edb, consts, opts)
}

// Model is a computed minimal model: a finite set of U-facts.
type Model struct {
	db *store.DB
}

// Contains reports whether the model holds the fact given as source text,
// e.g. "ancestor(abe, carl)".
func (m *Model) Contains(factSrc string) (bool, error) {
	f, err := parseFact(factSrc)
	if err != nil {
		return false, err
	}
	return m.db.Contains(f), nil
}

// Facts returns the model's facts for one predicate, rendered as source
// text, sorted.
func (m *Model) Facts(pred string) []string {
	rel := m.db.RelOrNil(pred)
	if rel == nil {
		return nil
	}
	out := make([]string, 0, rel.Len())
	for _, f := range rel.All() {
		out = append(out, f.String())
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of facts in the model.
func (m *Model) Len() int { return m.db.Len() }

// String renders the whole model as sorted fact lines.
func (m *Model) String() string { return m.db.String() }

// DB exposes the underlying fact store for advanced use such as the
// model-theory checkers.  It is shared with the engine's readers: write a
// Clone of it instead.
func (m *Model) DB() *store.DB { return m.db }
