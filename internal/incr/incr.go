// Package incr implements incremental view maintenance over the stratified
// fixpoint: a Materialized handle pairs a compiled admissible program with
// the current model, and Apply produces the next consistent model from a
// transaction of EDB insertions and retractions without re-running the
// from-scratch evaluation.
//
// The algorithm processes layers bottom-up (Theorem 1 of the paper keeps
// the model well-defined layer by layer).  Within layer i, three phases run
// in order:
//
//  1. Grouping (§3.2): bodies of grouping rules lie strictly below layer i
//     (Lemma 3.2.3), so the net deltas of the lower layers are final.  Only
//     the ≡-equivalence classes whose keys are touched by a delta are
//     recomputed; a changed class contributes its old fact to the deletion
//     seeds and its new fact to the insertion seeds.
//  2. Deletion, by delete-and-rederive (DRed): overestimate the deletions —
//     every derivation that consumed a deleted positive premise or a
//     newly-true negated premise — cascading within the layer against the
//     OLD model, then rederive the survivors against the new state.
//     Stratified negation makes lower-layer insertions a deletion source
//     (a negated premise became true) and vice versa.
//  3. Insertion, by semi-naive delta rules over the compiled access paths:
//     lower-layer insertions feed positive literals, lower-layer deletions
//     feed negated ones; new facts cascade within the layer.  A fact
//     re-inserted after being deleted in phase 2 is a resurrection — it is
//     net-unchanged and propagates no delta to higher layers.
//
// Snapshot publication is atomic: Apply writes a clone of the current model
// and swaps it in only when the whole transaction has been applied, so
// concurrent readers never observe a half-applied transaction.
package incr

import (
	"context"
	"sync"
	"sync/atomic"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Tx is one transaction: a set of EDB facts to insert and a set to retract.
// The transaction is interpreted as set update EDB' = (EDB ∪ Insert) −
// Retract: retracting a fact inserted by the same transaction is a no-op
// overall.
type Tx struct {
	Insert  []*term.Fact
	Retract []*term.Fact
}

// Result summarises the net model change of one Apply.
type Result struct {
	// Inserted and Deleted count the facts added to and removed from the
	// model (EDB and IDB together), net of resurrections.
	Inserted int
	Deleted  int
}

// Options configures a materialization.
type Options struct {
	// Workers > 1 runs the delta-enumeration and rederivation rounds of
	// each Apply concurrently.  From the same model, the resulting model
	// is identical to the sequential one, relation order included: every
	// round buffers per task and replays in task order, whatever Workers.
	Workers int
	// Strategy is the fixpoint strategy of the initial materialization.
	Strategy eval.Strategy
	// Stats, when non-nil, accumulates evaluation counters across the
	// initial materialization and every Apply (Firings, Derived and
	// Iterations of maintenance included, beside DeletedOverestimate,
	// Rederived, RegroupedClasses and the access-path counters).
	Stats *eval.Stats
	// MaxDerived > 0 bounds the facts a single Apply may insert into the
	// working model (net insertions and resurrections alike), enforced at
	// the insertion that exceeds it.  A breaching transaction fails with
	// *lderr.LimitError and rolls back completely.
	// The bound also applies to the initial materialization, where it is
	// eval.Options.MaxDerived verbatim.
	MaxDerived int
}

// layerRules holds the compiled rules of one layer, split by kind.
type layerRules struct {
	simple   []*eval.CompiledRule
	grouping []*eval.CompiledRule
	// within lists, in rule and literal order, the delta variants a cascade
	// inside the layer fires: one per positive body literal of a simple
	// rule whose predicate lives in this layer.
	within []*eval.Variant
}

// Materialized is a materialized view of a program over a mutable EDB: the
// compiled program, the current EDB, and the current model.  Apply advances
// the model by one transaction; Snapshot returns the current model as an
// immutable handle.  Apply calls serialize on an internal lock; Snapshot
// and reads of returned snapshots are safe from any goroutine.
type Materialized struct {
	prog   *ast.Program
	lay    *layering.Layering
	layers []layerRules
	// byHead indexes the compiled rules by head predicate for the
	// rederivation test.
	byHead map[string][]*eval.CompiledRule

	mu    sync.Mutex // serializes Apply; guards edb
	edb   *store.DB  // current EDB (replaced by a written clone per Apply)
	model atomic.Pointer[store.DB]

	// onChange, when set, is invoked after every successfully published
	// transaction with the predicates whose extensions changed; see OnChange.
	onChange func(preds []string)

	opts Options
}

// OnChange registers a callback fired after each successful Apply, with the
// names of every predicate (EDB and IDB) whose extension changed in the
// published model.  The callback runs under the Apply lock — after the new
// snapshot is visible, before the next transaction can start — so cache
// layers above the view (the engine's magic-answer cache) can invalidate
// without racing a concurrent Apply.  The callback must not call back into
// Apply.  Passing nil unregisters.
func (m *Materialized) OnChange(fn func(preds []string)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onChange = fn
}

// New compiles the program, evaluates it once against a clone of edb, and
// returns the materialized handle; the caller may go on writing edb, and
// the view does not see it.  Facts written in the program text seed the
// view's extensional state alongside edb: under maintenance they are
// ordinary EDB facts, so a transaction may retract them like any other.
func New(p *ast.Program, edb *store.DB, opts Options) (*Materialized, error) {
	if err := ast.CheckWellFormed(p); err != nil {
		return nil, err
	}
	lay, err := layering.Stratify(p)
	if err != nil {
		return nil, err
	}
	m := &Materialized{
		prog:   p,
		lay:    lay,
		layers: make([]layerRules, lay.NumStrata),
		byHead: map[string][]*eval.CompiledRule{},
		opts:   opts,
	}
	var progFacts []*term.Fact
	for i, rules := range lay.Rules {
		for _, r := range rules {
			if r.IsFact() {
				f, err := unify.ApplyLit(r.Head, unify.NewBindings())
				if err != nil {
					return nil, err
				}
				progFacts = append(progFacts, f)
				continue
			}
			cr, err := eval.CompileRule(r)
			if err != nil {
				return nil, err
			}
			m.byHead[r.Head.Pred] = append(m.byHead[r.Head.Pred], cr)
			if r.IsGroupingRule() {
				m.layers[i].grouping = append(m.layers[i].grouping, cr)
			} else {
				m.layers[i].simple = append(m.layers[i].simple, cr)
			}
		}
	}
	for i := range m.layers {
		lr := &m.layers[i]
		for _, cr := range lr.simple {
			for j, lit := range cr.Rule.Body {
				if cr.HasDelta(j) && !lit.Negated && lay.PredStratum(lit.Pred) == i {
					lr.within = append(lr.within, cr.Delta(j))
				}
			}
		}
	}
	m.edb = edb.Clone()
	m.edb.LoadFacts(progFacts, store.LoadOpts{Workers: opts.Workers})
	model, err := eval.Eval(p, m.edb, eval.Options{
		Strategy:   opts.Strategy,
		Stats:      opts.Stats,
		Workers:    opts.Workers,
		MaxDerived: opts.MaxDerived,
	})
	if err != nil {
		return nil, err
	}
	m.model.Store(model)
	return m, nil
}

// Snapshot returns the current model.  The returned database is immutable —
// maintenance never mutates a published snapshot — so it may be read from
// any goroutine, indefinitely, without synchronization.
func (m *Materialized) Snapshot() *store.DB { return m.model.Load() }

// EDBFacts returns the facts of the current EDB (a copy).
func (m *Materialized) EDBFacts() []*term.Fact {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*term.Fact(nil), m.edb.Facts()...)
}

// Program returns the program the view materializes.
func (m *Materialized) Program() *ast.Program { return m.prog }

// txState carries one transaction through the layers.
type txState struct {
	old *store.DB // pre-transaction model (read-only)
	w   *store.DB // working clone of old; published as the next model
	edb *store.DB // post-transaction EDB (read-only during layers)
	// gIns / gDel accumulate the net model deltas of the layers processed
	// so far; layer i reads them for strictly lower predicates (where they
	// are final) and appends its own net changes.
	gIns, gDel *deltaSet
	st         *eval.Stats

	// d is the transaction's driver: its budget — the context and
	// Options.MaxDerived, charged per fact inserted into w — guards every
	// enumeration and insertion of every layer.
	d *eval.Driver
}

// Apply advances the materialized model by one transaction and returns the
// net change.  On error the transaction is rolled back: neither the EDB nor
// the published model changes.  Apply never mutates a previously published
// snapshot.
func (m *Materialized) Apply(tx Tx) (Result, error) {
	return m.ApplyCtx(context.Background(), tx)
}

// ApplyCtx is Apply under a context: maintenance checks ctx at every phase,
// round and task boundary and polls it every few hundred firings inside an
// enumeration, and aborts with lderr.Canceled or lderr.DeadlineExceeded.  An
// aborted transaction rolls back completely — the working model is a clone
// published only on success, so neither the EDB nor any snapshot observes a
// partial transaction.
func (m *Materialized) ApplyCtx(ctx context.Context, tx Tx) (Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	if err := lderr.FromContext(ctx); err != nil {
		return Result{}, err
	}
	old := m.model.Load()
	edb2 := m.edb.Clone()

	// Normalise the transaction against the current EDB: only genuinely
	// new insertions and genuinely present retractions generate deltas,
	// and a retraction cancels an insertion of the same fact.
	addedSet := store.NewFactSet()
	dropped := store.NewFactSet()
	var added, removed []*term.Fact
	for _, f := range tx.Insert {
		g, ok := edb2.InsertGet(f)
		if ok {
			addedSet.Add(g)
			added = append(added, g)
		}
	}
	for _, f := range tx.Retract {
		if edb2.Delete(f) {
			if addedSet.Contains(f) {
				dropped.Add(f)
			} else {
				removed = append(removed, f)
			}
		}
	}

	ns := m.lay.NumStrata
	insBy := make([][]*term.Fact, ns)
	delBy := make([][]*term.Fact, ns)
	n := 0
	for _, f := range added {
		if dropped.Contains(f) {
			continue
		}
		s := m.lay.PredStratum(f.Pred)
		insBy[s] = append(insBy[s], f)
		n++
	}
	for _, f := range removed {
		s := m.lay.PredStratum(f.Pred)
		delBy[s] = append(delBy[s], f)
		n++
	}
	if n == 0 {
		return Result{}, nil
	}

	s := &txState{
		old:  old,
		w:    old.Clone(),
		edb:  edb2,
		gIns: newDeltaSet(),
		gDel: newDeltaSet(),
		st:   m.opts.Stats,
		d:    eval.NewDriver(ctx, m.opts.Stats, m.opts.Workers, m.opts.MaxDerived),
	}
	for i := 0; i < ns; i++ {
		if err := m.applyLayer(s, i, insBy[i], delBy[i]); err != nil {
			return Result{}, err
		}
	}

	m.edb = edb2
	m.model.Store(s.w)
	if m.onChange != nil {
		m.onChange(changedPreds(added, removed, s))
	}
	return Result{Inserted: s.gIns.len(), Deleted: s.gDel.len()}, nil
}

// changedPreds collects the distinct predicates a published transaction
// touched: the normalized EDB insertions and retractions plus every net
// model delta the layers produced.
func changedPreds(added, removed []*term.Fact, s *txState) []string {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, f := range added {
		add(f.Pred)
	}
	for _, f := range removed {
		add(f.Pred)
	}
	for _, p := range s.gIns.order {
		add(p)
	}
	for _, p := range s.gDel.order {
		add(p)
	}
	return out
}
