package incr

import (
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// applyLayer runs the three maintenance phases of layer i: grouping-class
// regrouping, the DRed deletion pass, and the semi-naive insertion pass.
// txIns/txDel are the transaction's own facts whose predicates live in this
// layer; cross-layer effects arrive through s.gIns/s.gDel.
func (m *Materialized) applyLayer(s *txState, i int, txIns, txDel []*term.Fact) error {
	lr := &m.layers[i]
	if err := s.interrupt(); err != nil {
		return err
	}

	// Phase G — grouping.  Bodies of grouping rules are strictly below
	// layer i (Lemma 3.2.3), so the net deltas they read are final.  A
	// changed ≡-class seeds the deletion pass with its old fact and the
	// insertion pass with its new one.
	var groupDel, groupIns []*term.Fact
	for _, cr := range lr.grouping {
		d, a, n, err := regroup(cr, s)
		if err != nil {
			return err
		}
		groupDel = append(groupDel, d...)
		groupIns = append(groupIns, a...)
		if s.st != nil {
			s.st.RegroupedClasses += n
		}
	}

	// Phase D — deletion overestimate.  Collect every layer-i fact whose
	// known derivation may have broken: transaction retractions, changed
	// grouping classes, then one round of rules fed by lower-layer deltas
	// (a deleted positive premise, or a negated premise that became true),
	// cascading within the layer against the OLD model.
	cands := newDeltaSet()
	var frontier []*term.Fact
	addCand := func(f *term.Fact) {
		if s.w.Contains(f) && cands.add(f) {
			frontier = append(frontier, f)
		}
	}
	for _, f := range txDel {
		addCand(f)
	}
	for _, f := range groupDel {
		addCand(f)
	}

	// below picks the delta a body literal of a strictly lower layer reads
	// (pos for a positive literal, neg for a negated one); within picks the
	// given frontier's facts for a same-layer literal — necessarily positive:
	// negation and grouping force their predicates strictly lower.
	below := func(pos, neg *deltaSet) func(ast.Literal) *store.Relation {
		return func(lit ast.Literal) *store.Relation {
			switch {
			case m.lay.PredStratum(lit.Pred) >= i:
				return nil
			case lit.Negated:
				return neg.rel(lit.Pred)
			}
			return pos.rel(lit.Pred)
		}
	}
	within := func(facts []*term.Fact) func(ast.Literal) *store.Relation {
		byPred := splitByPred(facts)
		return func(lit ast.Literal) *store.Relation {
			if lit.Negated {
				return nil
			}
			return byPred[lit.Pred]
		}
	}

	// A deleted positive premise, or a negated premise that became true.
	if err := m.fire(s, lr, s.old, below(s.gDel, s.gIns), addCand); err != nil {
		return err
	}
	for len(frontier) > 0 {
		if err := s.interrupt(); err != nil {
			return err
		}
		pick := within(frontier)
		frontier = nil
		if err := m.fire(s, lr, s.old, pick, addCand); err != nil {
			return err
		}
	}

	deleted := cands
	s.w.DeleteAll(deleted.facts())
	if s.st != nil {
		s.st.DeletedOverestimate += deleted.len()
	}

	// Rederive: a candidate survives if it is a base fact or some rule
	// still derives it from the new state.  Round 1 checks every candidate
	// in full; after that the only change to w is resurrection itself, and
	// same-layer body literals are necessarily positive, so semi-naive
	// propagation from the resurrected facts reaches exactly the candidates
	// whose derivability can have changed — no per-round rescan of the
	// whole survivor set.
	var res []*term.Fact
	var tasks []task
	for _, f := range deleted.facts() {
		f := f
		tasks = append(tasks, func(st *eval.Stats) ([]*term.Fact, error) {
			ok, err := m.derivable(s, f, st)
			if err != nil || !ok {
				return nil, err
			}
			return []*term.Fact{f}, nil
		})
	}
	out, err := m.runTasks(s.ctx, tasks, s.st)
	if err != nil {
		return err
	}
	for _, fs := range out {
		for _, f := range fs {
			s.w.Insert(f)
			deleted.remove(f)
			res = append(res, f)
			if s.st != nil {
				s.st.Rederived++
			}
		}
	}
	for len(res) > 0 && deleted.len() > 0 {
		if err := s.interrupt(); err != nil {
			return err
		}
		pick := within(res)
		res = nil
		err := m.fire(s, lr, s.w, pick, func(f *term.Fact) {
			if deleted.remove(f) {
				s.w.Insert(f)
				res = append(res, f)
				if s.st != nil {
					s.st.Rederived++
				}
			}
		})
		if err != nil {
			return err
		}
	}
	for _, f := range deleted.facts() {
		s.gDel.add(f)
	}

	// Phase I — insertions, semi-naive.  Seeds are the transaction's own
	// insertions and the new grouping facts; one round of rules fed by
	// lower-layer deltas (an inserted positive premise, or a negated
	// premise that became false), then the cascade within the layer, all
	// against the NEW state.  A fact re-entering after deletion in phase D
	// is a resurrection: net-unchanged, no delta for higher layers — but
	// it still joins the frontier so its same-layer dependents rederive.
	var insFrontier []*term.Fact
	addIns := func(f *term.Fact) {
		g, ok := s.w.MutableRel(f.Pred).InsertGet(f)
		if !ok {
			return
		}
		s.derived++
		insFrontier = append(insFrontier, g)
		if s.gDel.remove(g) {
			if s.st != nil {
				s.st.Rederived++
			}
		} else {
			s.gIns.add(g)
		}
	}
	for _, f := range txIns {
		addIns(f)
	}
	for _, f := range groupIns {
		addIns(f)
	}

	// An inserted positive premise, or a negated premise that became false.
	if err := m.fire(s, lr, s.w, below(s.gIns, s.gDel), addIns); err != nil {
		return err
	}
	for len(insFrontier) > 0 {
		if err := s.interrupt(); err != nil {
			return err
		}
		pick := within(insFrontier)
		insFrontier = nil
		if err := m.fire(s, lr, s.w, pick, addIns); err != nil {
			return err
		}
	}
	// A bound breached by the final cascade round must still fail the
	// transaction before ApplyCtx publishes the fork.
	return s.interrupt()
}

// fire runs each simple rule of the layer once per body literal that can
// take a delta and for which pick returns one — that literal reading the
// delta, the rest of the body reading db — and hands every head fact to
// emit, in rule and literal order.
func (m *Materialized) fire(s *txState, lr *layerRules, db *store.DB, pick func(ast.Literal) *store.Relation, emit func(*term.Fact)) error {
	var tasks []task
	for _, cr := range lr.simple {
		cr := cr
		for j, lit := range cr.Rule.Body {
			if !cr.HasDelta(j) {
				continue
			}
			delta := pick(lit)
			if delta == nil {
				continue
			}
			j := j
			tasks = append(tasks, func(st *eval.Stats) ([]*term.Fact, error) {
				return headFacts(cr, db, j, delta, st)
			})
		}
	}
	out, err := m.runTasks(s.ctx, tasks, s.st)
	if err != nil {
		return err
	}
	for _, fs := range out {
		for _, f := range fs {
			emit(f)
		}
	}
	return nil
}

// derivable is the rederivation test: f survives the deletion overestimate
// if it is a base fact (the post-transaction EDB, which includes any
// program-text facts not yet retracted) or any rule with its head predicate
// still derives it from the working state.
func (m *Materialized) derivable(s *txState, f *term.Fact, st *eval.Stats) (bool, error) {
	if s.edb.Contains(f) {
		return true, nil
	}
	for _, cr := range m.simpleByHead[f.Pred] {
		ok, err := cr.Derives(s.w, f, st)
		if err != nil || ok {
			return ok, err
		}
	}
	for _, cr := range m.groupByHead[f.Pred] {
		ok, err := groupDerives(cr, s.w, f, st)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}

// headFacts enumerates the rule's body with literal j bound to delta and
// returns the instantiated head facts.
func headFacts(cr *eval.CompiledRule, db *store.DB, j int, delta *store.Relation, st *eval.Stats) ([]*term.Fact, error) {
	var out []*term.Fact
	err := cr.EnumerateDelta(db, j, delta, st, func(b *unify.Bindings) error {
		args, ok, err := cr.ApplyHead(b)
		if err != nil || !ok {
			return err
		}
		out = append(out, term.NewFact(cr.Rule.Head.Pred, args...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
