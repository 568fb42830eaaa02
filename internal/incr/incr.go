// Package incr implements incremental view maintenance over the stratified
// fixpoint: a Materialized handle pairs a compiled admissible program with
// the current model, and Apply produces the next consistent model from a
// transaction of EDB insertions and retractions without re-running the
// from-scratch evaluation.
//
// The algorithm processes layers bottom-up (Theorem 1 of the paper keeps
// the model well-defined layer by layer): the layers the program was
// admitted with (eval.Admit), one per strongly connected component above
// the EDB layer 0.  A layer the transaction does not reach — no fact of its
// own, no delta on a lower predicate its rules read — is skipped.  Within
// layer i, three phases run in order:
//
//  1. Grouping (§3.2): bodies of grouping rules lie strictly below layer i
//     (Lemma 3.2.3), so the net deltas of the lower layers are final.  Only
//     the ≡-equivalence classes whose keys are touched by a delta are
//     recomputed, and their old sets are read from the old model where the
//     rule is the only source of its predicate's facts; a changed class
//     contributes its old fact to the deletion seeds and its new fact to
//     the insertion seeds.
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
	"slices"
	"sync"
	"sync/atomic"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/lderr"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Tx is one transaction: a set of EDB facts to insert and a set to retract.
// The transaction is interpreted as set update EDB' = (EDB ∪ Insert) −
// Retract: retracting a fact inserted by the same transaction is a no-op
// overall.
type Tx struct {
	Insert  []*term.Fact
	Retract []*term.Fact
	// Stats, when non-nil, receives the transaction's counters in place of
	// the view's Options.Stats.
	Stats *eval.Stats
}

// Result summarises the net model change of one Apply.
type Result struct {
	// Inserted and Deleted count the facts added to and removed from the
	// model (EDB and IDB together), net of resurrections.
	Inserted int
	Deleted  int
	// Changed names every predicate (EDB and IDB) whose extension the
	// transaction changed, each once: what a cache of answers over the
	// model evicts by.
	Changed []string
}

// Options configures a materialization: the initial evaluation runs under
// all of them, as eval.Eval does.  A transaction keeps Stats, where its
// counters accumulate (maintenance adds DeletedOverestimate, Rederived and
// RegroupedClasses to the evaluation counters), MaxDerived, which bounds
// the facts one transaction may insert into the working model (net
// insertions and resurrections alike) at the insertion that exceeds it — a
// breaching transaction fails with *lderr.LimitError and rolls back
// completely — and NoReorder, under which its bodies are ordered
// statically.  Its context is the one ApplyCtx is given.
type Options = eval.Options

// Materialized is a materialized view of a program over a mutable EDB: the
// compiled program, the current EDB, and the current model.  Apply advances
// the model by one transaction; Snapshot returns the current model as an
// immutable handle.  Apply calls serialize on an internal lock; Snapshot
// and reads of returned snapshots are safe from any goroutine.
type Materialized struct {
	prog *eval.Program
	lay  *layering.Layering
	// below[i] lists the predicates of lower layers the rules of layer i
	// read: a transaction that changes none of them and has no fact of the
	// layer's own leaves the layer as it is.
	below [][]string
	// byHead indexes the compiled rules by head predicate for the
	// rederivation test.
	byHead map[string][]*eval.Rule

	mu    sync.Mutex // serializes Apply; guards edb
	edb   *store.DB  // current EDB (replaced by a written clone per Apply)
	model atomic.Pointer[store.DB]

	// opts is what a transaction runs under of the view's options: Stats,
	// MaxDerived and NoReorder.
	opts Options
}

// New admits the program (eval.Admit) and materializes it over edb; see
// From.
func New(p *ast.Program, edb *store.DB, opts Options) (*Materialized, error) {
	prog, err := eval.Admit(p)
	if err != nil {
		return nil, err
	}
	return From(prog, edb, opts)
}

// From materializes an admitted program: it reads the program's compiled
// rules, layer by layer of its layering, evaluates the program once against
// a clone of edb, and returns the handle; the caller may go on writing edb,
// and the view does not see it.  Facts written in the program text seed the
// view's extensional state alongside edb: under maintenance they are
// ordinary EDB facts, so a transaction may retract them like any other.
func From(prog *eval.Program, edb *store.DB, opts Options) (*Materialized, error) {
	lay := prog.Layering()
	m := &Materialized{
		prog:   prog,
		lay:    lay,
		below:  make([][]string, lay.NumStrata),
		byHead: map[string][]*eval.Rule{},
		opts:   Options{Stats: opts.Stats, MaxDerived: opts.MaxDerived, NoReorder: opts.NoReorder},
	}
	for i := range lay.NumStrata {
		l := prog.Layer(i)
		for _, cr := range slices.Concat(l.Grouping, l.Simple) {
			m.byHead[cr.Rule.Head.Pred] = append(m.byHead[cr.Rule.Head.Pred], cr)
			for j, lit := range cr.Rule.Body {
				if cr.HasDelta(j) && lay.PredStratum(lit.Pred) < i && !slices.Contains(m.below[i], lit.Pred) {
					m.below[i] = append(m.below[i], lit.Pred)
				}
			}
		}
	}
	m.edb = edb.Clone()
	m.edb.LoadFacts(prog.Facts(), store.LoadOpts{})
	model := m.edb.Clone()
	if err := prog.Run(model, opts, nil); err != nil {
		return nil, err
	}
	m.model.Store(model)
	return m, nil
}

// Clone returns a second view of the same state in O(1): it shares the
// program, the layering, the current EDB and the published model, which
// each side only ever replaces by a written clone, so a transaction on
// either side is invisible to the other.  The clone has its own lock.
func (m *Materialized) Clone() *Materialized {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := &Materialized{prog: m.prog, lay: m.lay, below: m.below, byHead: m.byHead, edb: m.edb, opts: m.opts}
	c.model.Store(m.model.Load())
	return c
}

// Derived returns the number of facts the current model holds beyond its
// EDB: what evaluating the program from scratch over that EDB derives, and
// charges against Options.MaxDerived.
func (m *Materialized) Derived() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.model.Load().Len() - m.edb.Len()
}

// Snapshot returns the current model.  The returned database is immutable —
// maintenance never mutates a published snapshot — so it may be read from
// any goroutine, indefinitely, without synchronization.
func (m *Materialized) Snapshot() *store.DB { return m.model.Load() }

// txState carries one transaction through the layers.
type txState struct {
	old    *store.DB // pre-transaction model (read-only)
	w      *store.DB // working clone of old; published as the next model
	oldEDB *store.DB // pre-transaction EDB, whose model old is (read-only)
	edb    *store.DB // post-transaction EDB (read-only during layers)
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

// changed reports whether a lower layer changed any of preds.
func (s *txState) changed(preds []string) bool {
	for _, p := range preds {
		if s.gIns.rel(p) != nil || s.gDel.rel(p) != nil {
			return true
		}
	}
	return false
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
	added, removed := WriteEDB(edb2, tx)
	if len(added)+len(removed) == 0 {
		return Result{}, nil
	}
	ns := m.lay.NumStrata
	insBy := make([][]*term.Fact, ns)
	delBy := make([][]*term.Fact, ns)
	for _, f := range added {
		s := m.lay.PredStratum(f.Pred)
		insBy[s] = append(insBy[s], f)
	}
	for _, f := range removed {
		s := m.lay.PredStratum(f.Pred)
		delBy[s] = append(delBy[s], f)
	}

	opts := m.opts
	opts.Ctx = ctx
	if tx.Stats != nil {
		opts.Stats = tx.Stats
	}
	s := &txState{
		old:    old,
		w:      old.Clone(),
		oldEDB: m.edb,
		edb:    edb2,
		gIns:   newDeltaSet(),
		gDel:   newDeltaSet(),
		st:     opts.Stats,
		d:      eval.NewDriver(opts),
	}
	for i := 0; i < ns; i++ {
		if len(insBy[i]) == 0 && len(delBy[i]) == 0 && !s.changed(m.below[i]) {
			continue
		}
		if err := m.applyLayer(s, i, insBy[i], delBy[i]); err != nil {
			return Result{}, err
		}
	}

	m.edb = edb2
	m.model.Store(s.w)
	return Result{Inserted: s.gIns.len(), Deleted: s.gDel.len(), Changed: changedPreds(added, removed, s)}, nil
}

// WriteEDB applies tx to edb, EDB' = (EDB ∪ Insert) − Retract, and returns
// the facts it added and removed, net: only genuinely new insertions and
// genuinely present retractions count, and a retraction cancels an
// insertion of the same fact.
func WriteEDB(edb *store.DB, tx Tx) (added, removed []*term.Fact) {
	addedSet, dropped := store.NewFactSet(), store.NewFactSet()
	for _, f := range tx.Insert {
		if g, ok := edb.InsertGet(f); ok {
			addedSet.Add(g)
			added = append(added, g)
		}
	}
	for _, f := range tx.Retract {
		switch {
		case !edb.Delete(f):
		case addedSet.Contains(f):
			dropped.Add(f)
		default:
			removed = append(removed, f)
		}
	}
	return slices.DeleteFunc(added, dropped.Contains), removed
}

// changedPreds collects the distinct predicates a transaction touched: the
// normalized EDB insertions and retractions plus every net model delta the
// layers produced.
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
