package ldl1

import (
	"context"
	"maps"
	"sort"
	"sync"
	"time"

	"ldl1/internal/analyze"
	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/incr"
	"ldl1/internal/magic"
	"ldl1/internal/parser"
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

// WithStats attaches a counter sink.  Run, Query, prepared Exec, Materialize
// and every transaction of a view it returns each count into a Stats of
// their own and merge it into the sink under one lock when they finish, so
// concurrent reads and writes may share one sink; read it once they have
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
// read, or a view transaction — may derive; it aborts with *lderr.LimitError
// beyond it, and Run does so whatever the order of loads and reads.  A
// termination guard for programs whose function symbols could generate
// unbounded terms.
func WithLimit(maxDerived int) Option { return func(c *config) { c.limit = maxDerived } }

// WithDeadline bounds the wall-clock time of every Run, Query, prepared
// Exec and materialized-view operation (a read may replace it through
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
// forms, the engine's and every view's: every query recompiles and
// re-evaluates from scratch.  An ablation switch for benchmarks; Prepare
// still works and still skips recompilation through its own handle.
func WithoutQueryCache() Option { return func(c *config) { c.noQueryCache = true } }

// WithoutRewrite disables the automatic LDL1.5 → LDL1 compilation; programs
// using §4 constructs are then rejected by the well-formedness check.
func WithoutRewrite() Option { return func(c *config) { c.noRewrite = true } }

// Engine holds a checked LDL1 program, its extensional database and their
// model, a view (see Materialized) that the first Run or plain read builds.
// A load only queues its facts; the next read that needs the model inserts
// all queued facts as one transaction, under that read's context.
//
// Concurrency: a load, and a read that builds or updates the model, take a
// write lock; other reads take a read lock.  A magic-sets read (WithMagic)
// and Explain clone the extensional database under a read lock and evaluate
// the clone without it.  Every read sees a load wholly or not at all.  The
// reader's answer cache and form memo carry their own locks and publish only
// fully built, immutable entries.
type Engine struct {
	cfg      config
	source   *ast.Program  // program as written (after LDL1.5 expansion)
	prog     *eval.Program // source admitted: what the view and Explain run
	original *ast.Program  // program as written, before expansion
	mu       sync.RWMutex  // guards edb, view and pending
	edb      *store.DB
	view     *incr.Materialized // nil until a read builds it, and once dropped
	pending  []*term.Fact       // loaded since the view was last brought up to date

	// r answers every Query and prepared Exec: from the view's snapshot, or
	// under WithMagic through a magic form evaluated against edb.
	r *reader
}

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
	e.source, e.prog = compiled, prog
	e.edb = store.NewDB()
	e.edb.UseIndexes = !e.cfg.noIndexes
	e.r = e.cfg.newReader(e.materialized, dependencyCones(compiled))
	e.r.sink = &sink{counts: e.cfg.stats}
	if e.cfg.magic {
		e.r.magicForm, e.r.exec = e.magicForm, e.execMagic
	}
	return e, nil
}

// AddFact inserts one extensional fact, evaluated as AddFacts evaluates its
// facts.  A fact with a variable (§7) or outside U is rejected, with the
// error AddFacts wraps for it, and nothing is inserted.
func (e *Engine) AddFact(f *Fact) error {
	f, err := groundFact(ast.NewLit(f.Pred, f.Args...))
	if err != nil {
		return err
	}
	e.load([]string{f.Pred}, []*term.Fact{f})
	return nil
}

// AddFacts inserts facts given as LDL1 source text ("parent(a, b). ...").
// The parsed facts are loaded in one batch, so intern tables are pre-sized
// instead of grown fact by fact.
func (e *Engine) AddFacts(src string) error {
	fs, err := parseFactList(src)
	if err != nil || len(fs) == 0 {
		return err
	}
	var preds []string
	seen := map[string]bool{}
	for _, f := range fs {
		if !seen[f.Pred] {
			seen[f.Pred] = true
			preds = append(preds, f.Pred)
		}
	}
	e.load(preds, fs)
	return nil
}

// AddDB inserts every fact of a prebuilt database (e.g. from the workload
// generators used in benchmarks).  Each source relation is loaded through
// the bulk path and shares the caller's facts as they are.
func (e *Engine) AddDB(db *store.DB) {
	var rels [][]*term.Fact
	for _, p := range db.Preds() {
		if r := db.RelOrNil(p); r != nil && r.Len() > 0 {
			rels = append(rels, r.All())
		}
	}
	e.load(db.Preds(), rels...)
}

// load writes each list of rels into the extensional database through the
// bulk path, evicts answers on preds and queues the facts for the model, if
// a read has built one.  Under WithMemBudget it drops the model instead.
func (e *Engine) load(preds []string, rels ...[]*term.Fact) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, fs := range rels {
		e.edb.LoadFacts(fs, store.LoadOpts{})
		if e.view != nil {
			e.pending = append(e.pending, fs...)
		}
	}
	if e.cfg.memBudget > 0 {
		e.view, e.pending = nil, nil
	}
	e.r.cache.Invalidate(preds...)
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

// knownPreds is the set of extensional predicate names — the only store
// input the type inference and the vet pass depend on.  Callers hold e.mu.
func (e *Engine) knownPreds() map[string]bool {
	preds := e.edb.Preds()
	known := make(map[string]bool, len(preds))
	for _, p := range preds {
		known[p] = true
	}
	return known
}

// Signatures returns the inferred per-predicate argument signatures of the
// program as written — the tooling surface behind vet -sigs and the REPL's
// :check.  Predicates whose facts live in the extensional store read as ⊤
// and are omitted.
func (e *Engine) Signatures() []types.PredSig {
	e.mu.RLock()
	known := e.knownPreds()
	e.mu.RUnlock()
	return analyze.Signatures(e.original, analyze.Options{KnownPreds: known})
}

// evalOpts assembles the options of one evaluation under ctx, counting
// into st.  Callers hold e.mu.
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
// to the extensional database (Theorem 1) and returns it.  The model is
// kept, and the next read inserts facts loaded since into it (see Engine).
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

// materialized returns the engine's view brought up to date under ctx and
// the engine's deadline: built by one evaluation if there is none, else
// with the facts loaded since inserted as one transaction.  A canceled
// context keeps the queue for the next read; any other failure, or a model
// past WithLimit, drops the view, and evaluation from scratch answers.
func (e *Engine) materialized(ctx context.Context) (*incr.Materialized, error) {
	e.mu.RLock()
	v, current := e.view, len(e.pending) == 0
	e.mu.RUnlock()
	if v != nil && current {
		return v, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ctx, cancel := withDeadline(ctx, e.cfg.deadline)
	defer cancel()
	st, merge := e.r.sink.stats()
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
		e.view, err = incr.From(e.prog, e.edb, e.evalOpts(ctx, st))
	}
	return e.view, err
}

// Query answers a conjunctive query ("ancestor(abe, W)", with or without
// the ?- prefix).  With WithMagic and a positive single-literal query on a
// derived predicate, the Generalized Magic Sets pipeline of §6 is used;
// otherwise the full model is computed and filtered.
func (e *Engine) Query(q string) (*Answers, error) {
	return e.QueryCtx(context.Background(), q)
}

// QueryCtx is Query under a context; cancellation semantics are those of
// RunCtx, for the magic-sets pipeline as well as the full-model path.
func (e *Engine) QueryCtx(ctx context.Context, q string) (*Answers, error) {
	return e.r.query(ctx, q, ReadOpts{})
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
		e.mu.RLock()
		known := e.knownPreds()
		e.mu.RUnlock()
		if ds := analyze.Program(e.original, []parser.Query{query}, analyze.Options{KnownPreds: known}); len(ds) > 0 {
			return nil, &VetError{Diagnostics: ds}
		}
	}
	return e.r.prepare(query)
}

// magicForm is the reader's magic compile step on a WithMagic engine: the
// magic form of a positive literal on a derived predicate, nil for any other
// literal.
func (e *Engine) magicForm(lit ast.Literal) (*magic.Prepared, error) {
	if _, derived := e.r.cones[lit.Pred]; !derived || lit.Negated {
		return nil, nil
	}
	return magic.PrepareVariant(e.source, parser.Query{Body: []ast.Literal{lit}}, e.cfg.magicVariant())
}

// execMagic is the reader's exec step on a WithMagic engine: one magic-sets
// evaluation of a compiled form against a clone of the extensional
// database, taken under the read lock, so a concurrent load lands strictly
// before or after it and the saturation runs without the lock.
func (e *Engine) execMagic(ctx context.Context, pr *magic.Prepared, consts []term.Term, o ReadOpts, st *Stats) ([][]term.Term, error) {
	e.mu.RLock()
	edb := e.edb.Clone()
	opts := e.evalOpts(ctx, st)
	e.mu.RUnlock()
	if o.MemBudget > 0 {
		opts.MemBudget = o.MemBudget
	}
	res, err := pr.Exec(edb, consts, opts)
	if err != nil {
		return nil, err
	}
	return res.Solutions, nil
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
