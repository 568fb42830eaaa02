package incr

import (
	"ldl1/internal/eval"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// candidates is the sink of the DRed overestimate: a head fact the old
// model holds loses its known derivation and becomes a deletion candidate.
type candidates struct {
	w   *store.DB // layer-i relations still as in the old model
	set *deltaSet
}

func (c *candidates) Probe(pred string) (*store.Relation, bool) { return c.w.RelOrNil(pred), true }

func (c *candidates) Accept(f *term.Fact) (bool, error) {
	return c.w.Contains(f) && c.set.add(f), nil
}

// resurrector is the sink of rederivation: an overestimated deletion that
// is still derivable goes back into the working model.
type resurrector struct {
	s       *txState
	deleted *deltaSet
}

func (r *resurrector) Probe(pred string) (*store.Relation, bool) { return r.deleted.rels[pred], true }

func (r *resurrector) Accept(f *term.Fact) (bool, error) {
	if !r.deleted.remove(f) {
		return false, nil
	}
	r.s.w.Insert(f)
	if r.s.st != nil {
		r.s.st.Rederived++
	}
	return true, nil
}

// inserter is the sink of the insertion pass: a head fact the working
// model lacks is inserted and charged to the transaction's bound.  A fact
// re-entering after deletion in phase D is a resurrection: net-unchanged,
// no delta for higher layers — but it still joins the frontier so its
// same-layer dependents rederive.
type inserter struct{ s *txState }

func (k inserter) Probe(pred string) (*store.Relation, bool) { return k.s.w.RelOrNil(pred), false }

// insert is Accept for a fact no rule derived: a transaction's own
// insertion is not counted as derived.
func (k inserter) insert(f *term.Fact) (bool, error) {
	s := k.s
	if !s.w.Insert(f) {
		return false, nil
	}
	if s.gDel.remove(f) {
		if s.st != nil {
			s.st.Rederived++
		}
	} else {
		s.gIns.add(f)
	}
	return true, s.d.Charge(f)
}

func (k inserter) Accept(f *term.Fact) (bool, error) {
	ok, err := k.insert(f)
	if ok && k.s.st != nil {
		k.s.st.Derived++
	}
	return ok, err
}

// seed offers facts that come from no firing of this layer — the
// transaction's own, the regrouped classes' — to accept, and starts the
// frontier with the ones it takes.
func seed(fr *eval.Frontier, facts []*term.Fact, accept func(*term.Fact) (bool, error)) error {
	for _, f := range facts {
		ok, err := accept(f)
		if err != nil {
			return err
		}
		if ok {
			fr.Add(f)
		}
	}
	return nil
}

// applyLayer runs the three maintenance phases of layer i: grouping-class
// regrouping, the DRed deletion pass, and the semi-naive insertion pass.
// txIns/txDel are the transaction's own facts whose predicates live in this
// layer; cross-layer effects arrive through s.gIns/s.gDel.
func (m *Materialized) applyLayer(s *txState, i int, txIns, txDel []*term.Fact) error {
	lr := &m.layers[i]
	if err := s.d.Err(); err != nil {
		return err
	}

	// Phase G — grouping.  Bodies of grouping rules are strictly below
	// layer i (Lemma 3.2.3), so the net deltas they read are final.  A
	// changed ≡-class seeds the deletion pass with its old fact and the
	// insertion pass with its new one.
	var groupDel, groupIns []*term.Fact
	err := s.d.Do(func(x *eval.Exec) error {
		for _, cr := range lr.grouping {
			// The old model's facts of the head predicate are the rule's
			// own unless another rule or the old EDB contributes some.
			pred := cr.Rule.Head.Pred
			own := len(m.byHead[pred]) == 1 && s.oldEDB.Card(pred) == 0
			d, a, n, err := regroup(x, cr, s, own)
			if err != nil {
				return err
			}
			groupDel = append(groupDel, d...)
			groupIns = append(groupIns, a...)
			if s.st != nil {
				s.st.RegroupedClasses += n
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// below schedules every simple rule of the layer once per body literal
	// of a strictly lower layer whose predicate has a delta — pos for a
	// positive literal, neg for a negated one — that literal reading the
	// delta, the rest of the body reading db.  Same-layer literals are the
	// cascade's (lr.within): necessarily positive, as negation and grouping
	// force their predicates strictly lower.
	below := func(db *store.DB, pos, neg *deltaSet) []eval.Task {
		var tasks []eval.Task
		for _, cr := range lr.simple {
			for j, lit := range cr.Rule.Body {
				if !cr.HasDelta(j) || m.lay.PredStratum(lit.Pred) >= i {
					continue
				}
				src := pos
				if lit.Negated {
					src = neg
				}
				if delta := src.rel(lit.Pred); delta != nil {
					tasks = append(tasks, cr.Delta(j).Task(db, delta))
				}
			}
		}
		return tasks
	}

	// Phase D — deletion overestimate, then rederivation; skipped when the
	// layer has no deletion source, as both would find nothing.
	if tasks := below(s.old, s.gDel, s.gIns); len(txDel)+len(groupDel)+len(tasks) > 0 {
		if err := m.deleteLayer(s, lr, txDel, groupDel, tasks); err != nil {
			return err
		}
	}

	// Phase I — insertions, semi-naive.  Seeds are the transaction's own
	// insertions and the new grouping facts; one round of rules fed by
	// lower-layer deltas (an inserted positive premise, or a negated
	// premise that became false), then the cascade within the layer, all
	// against the NEW state.  Skipped, like phase D, with no source.
	tasks := below(s.w, s.gIns, s.gDel)
	if len(txIns)+len(groupIns)+len(tasks) == 0 {
		return nil
	}
	ins := inserter{s}
	fr := eval.NewFrontier(true, lr.within)
	if err := seed(fr, txIns, ins.insert); err != nil {
		return err
	}
	if err := seed(fr, groupIns, ins.Accept); err != nil {
		return err
	}
	if err := s.d.Round(tasks, ins, fr); err != nil {
		return err
	}
	return s.d.Cascade(fr, s.w, ins, nil)
}

// deleteLayer is phase D of layer lr: the DRed deletion overestimate
// collects every fact of the layer whose known derivation may have broken —
// the transaction's retractions txDel, the changed grouping classes'
// groupDel, then one round of tasks, the rules fed by lower-layer deltas (a
// deleted positive premise, or a negated premise that became true) —
// cascading within the layer against the OLD model; the candidates leave
// the working model, and those still derivable come back.
func (m *Materialized) deleteLayer(s *txState, lr *layerRules, txDel, groupDel []*term.Fact, tasks []eval.Task) error {
	cands := &candidates{w: s.w, set: newDeltaSet()}
	fr := eval.NewFrontier(true, lr.within)
	if err := seed(fr, txDel, cands.Accept); err != nil {
		return err
	}
	if err := seed(fr, groupDel, cands.Accept); err != nil {
		return err
	}
	if err := s.d.Round(tasks, cands, fr); err != nil {
		return err
	}
	if err := s.d.Cascade(fr, s.old, cands, nil); err != nil {
		return err
	}
	deleted := cands.set
	s.w.DeleteAll(deleted.facts())
	if s.st != nil {
		s.st.DeletedOverestimate += deleted.len()
	}

	// Rederive: a candidate survives if it is a base fact or some rule
	// still derives it from the post-deletion state.  Round 1 checks every
	// candidate in full against that state, and only then resurrects the
	// survivors; after that the only change to w is resurrection itself,
	// and same-layer body literals are necessarily positive, so semi-naive
	// propagation from the resurrected facts reaches exactly the candidates
	// whose derivability can have changed — no per-round rescan of the
	// whole survivor set.
	var alive []*term.Fact
	err := s.d.Do(func(x *eval.Exec) error {
		for _, f := range deleted.facts() {
			ok, err := m.derivable(x, s, f)
			if err != nil {
				return err
			}
			if ok {
				alive = append(alive, f)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res := &resurrector{s: s, deleted: deleted}
	fr = eval.NewFrontier(true, lr.within)
	if err := seed(fr, alive, res.Accept); err != nil {
		return err
	}
	more := func(int) (bool, error) { return deleted.len() > 0, nil }
	if err := s.d.Cascade(fr, s.w, res, more); err != nil {
		return err
	}
	for _, f := range deleted.facts() {
		s.gDel.add(f)
	}
	return nil
}

// derivable is the rederivation test: f survives the deletion overestimate
// if it is a base fact (the post-transaction EDB, which includes any
// program-text facts not yet retracted) or any rule with its head predicate
// still derives it from the working state.
func (m *Materialized) derivable(x *eval.Exec, s *txState, f *term.Fact) (bool, error) {
	if s.edb.Contains(f) {
		return true, nil
	}
	for _, cr := range m.byHead[f.Pred] {
		ok, err := cr.Derives(x, s.w, f)
		if err != nil || ok {
			return ok, err
		}
	}
	return false, nil
}
