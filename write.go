package ldl1

import (
	"context"
	"fmt"
	"slices"

	"ldl1/internal/ast"
	"ldl1/internal/incr"
	"ldl1/internal/lderr"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// UpdateResult summarises the net model change of one update transaction:
// facts added to and removed from the model, EDB and derived together, and
// the predicates whose extension changed.  A WithMagic engine that has not
// built its model (no Run, and no read that needed it) reports the change
// of its extensional database only.
type UpdateResult = incr.Result

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
	if err == nil {
		e.load(predsOf(fs), fs)
	}
	return err
}

// AddDB inserts every fact of a prebuilt database (e.g. from the workload
// generators used in benchmarks).  A relation of db whose predicate the
// engine holds no fact of is shared, not copied (store.DB.Adopt): it is
// frozen, the engine takes a fork of it, and a write through db forks it
// again, so neither side's later writes reach the other.  A
// *store.Relation of db held across AddDB must therefore be written
// through db (db.Rel), as after a db.Clone; writing it directly panics.
// A relation both sides hold facts of is copied.
func (e *Engine) AddDB(db *store.DB) {
	var preds []string
	var rels []*store.Relation
	for _, p := range db.Preds() {
		if r := db.RelOrNil(p); r != nil && r.Len() > 0 {
			preds, rels = append(preds, p), append(rels, r)
		}
	}
	e.load(preds, nil, rels...)
}

// predsOf returns the predicates of fs, each once.
func predsOf(fs []*term.Fact) []string {
	var preds []string
	for _, f := range fs {
		if len(preds) == 0 || preds[len(preds)-1] != f.Pred && !slices.Contains(preds, f.Pred) {
			preds = append(preds, f.Pred)
		}
	}
	return preds
}

// load queues fs and the facts of rels, all of them facts of preds, for the
// model, if there is one, and commits them to the extensional database:
// rels by adoption, fs through the bulk path.  Under WithMemBudget it drops
// the model instead, since a transaction inserting the facts would not
// measure bytes.
func (e *Engine) load(preds []string, fs []*term.Fact, rels ...*store.Relation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.current.Store(nil)
	if e.cfg.memBudget > 0 {
		e.view, e.pending = nil, nil
	}
	if e.view != nil {
		e.pending = append(e.pending, fs...)
		for _, r := range rels {
			e.pending = append(e.pending, r.All()...)
		}
	}
	for _, r := range rels {
		e.edb.Adopt(r)
	}
	e.commit(preds, preds, nil, fs)
}

// commit writes a change into the extensional database — ins first, then
// del — records inserted, the predicates of the facts inserted, as known,
// and evicts the answers on changed, the predicates whose extension it
// changed: the one place an answer is evicted.  A read that solved against
// the database before the change and finishes after it is not cached (see
// Engine.read).  The first facts of a derived predicate make every magic
// form compiled before stale (see form.stale).  Callers hold e.mu for
// writing.
func (e *Engine) commit(changed, inserted []string, del, ins []*term.Fact) {
	e.edb.LoadFacts(ins, store.LoadOpts{})
	for _, p := range inserted {
		if _, derived := e.cones[p]; derived && !e.known[p] {
			e.stored.Add(1)
		}
		e.known[p] = true
	}
	if len(del) > 0 {
		e.edb.DeleteAll(del)
	}
	e.cache.Invalidate(changed...)
}

// write applies tx as one transaction once the queued loads are in the
// model, and commits it only if the model took it.  A WithMagic engine
// with no model applies it to the extensional database alone (see
// writeEDB).  A retraction of a fact the program text gives a derived
// predicate is an error, and the transaction is not applied.
func (e *Engine) write(ctx context.Context, tx incr.Tx) (res UpdateResult, err error) {
	for _, f := range tx.Retract {
		if _, derived := e.cones[f.Pred]; derived && slices.ContainsFunc(e.prog.Facts(), func(g *term.Fact) bool { return term.EqualFacts(f, g) }) {
			return res, &lderr.ArgError{Msg: fmt.Sprintf("%s is a fact of the program text for derived predicate %s: part of the program, not retractable", f, f.Pred)}
		}
	}
	e.mu.Lock()
	if e.magic && e.view == nil {
		defer e.mu.Unlock()
		return e.writeEDB(ctx, tx)
	}
	e.mu.Unlock()
	_, err = e.sync(ctx, func(ctx context.Context, st *Stats) error {
		tx.Stats = st
		if res, err = e.view.ApplyCtx(ctx, tx); err == nil {
			e.commit(res.Changed, predsOf(tx.Insert), tx.Retract, tx.Insert)
		}
		return err
	})
	return res, err
}

// writeEDB applies tx to the extensional database alone: the transaction
// of a WithMagic engine that holds no model, which its magic reads do not
// need and which a program whose bottom-up model is infinite could not
// build.  The result counts the extensional facts added and removed.
// Callers hold e.mu for writing.
func (e *Engine) writeEDB(ctx context.Context, tx incr.Tx) (UpdateResult, error) {
	if err := lderr.FromContext(ctx); err != nil {
		return UpdateResult{}, err
	}
	added, removed := incr.WriteEDB(e.edb, tx)
	res := UpdateResult{Inserted: len(added), Deleted: len(removed), Changed: predsOf(slices.Concat(added, removed))}
	e.commit(res.Changed, predsOf(added), nil, nil)
	return res, nil
}

// Assert inserts extensional facts given as source text ("par(a, b). ...")
// as one transaction and incrementally updates the model.
func (e *Engine) Assert(src string) (UpdateResult, error) {
	return e.AssertCtx(context.Background(), src)
}

// AssertCtx is Assert under a context.  A canceled context or expired
// deadline rolls the transaction back completely: neither the extensional
// database nor any model snapshot changes, and the returned error satisfies
// errors.Is against lderr.Canceled or lderr.DeadlineExceeded.  A
// transaction that would derive more than WithLimit facts rolls back alike,
// with *lderr.LimitError.
func (e *Engine) AssertCtx(ctx context.Context, src string) (UpdateResult, error) {
	return e.UpdateCtx(ctx, src, "")
}

// Retract removes extensional facts given as source text as one
// transaction and incrementally updates the model.  Retracting an absent
// fact is a no-op.
func (e *Engine) Retract(src string) (UpdateResult, error) {
	return e.RetractCtx(context.Background(), src)
}

// RetractCtx is Retract under a context, with AssertCtx's rollback
// guarantee.
func (e *Engine) RetractCtx(ctx context.Context, src string) (UpdateResult, error) {
	return e.UpdateCtx(ctx, "", src)
}

// Update applies insertions and retractions, both given as fact-list
// source text, as ONE transaction: the model moves atomically from the
// state before the call to the state with both applied, and concurrent
// readers never observe the insertions without the retractions or vice
// versa.  Either argument may be empty.
func (e *Engine) Update(assertSrc, retractSrc string) (UpdateResult, error) {
	return e.UpdateCtx(context.Background(), assertSrc, retractSrc)
}

// UpdateCtx is Update under a context, with AssertCtx's rollback
// guarantee.
func (e *Engine) UpdateCtx(ctx context.Context, assertSrc, retractSrc string) (UpdateResult, error) {
	ins, err := parseFactList(assertSrc)
	if err != nil {
		return UpdateResult{}, err
	}
	del, err := parseFactList(retractSrc)
	if err != nil {
		return UpdateResult{}, err
	}
	return e.write(ctx, incr.Tx{Insert: ins, Retract: del})
}

// parseFactList parses LDL1 source text consisting of ground facts only:
// what Engine.AddFacts loads, a transaction asserts or retracts, and
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
