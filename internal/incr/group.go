package incr

import (
	"ldl1/internal/eval"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Grouping maintenance (§3.2).  A grouping rule h(k̄, <X>) <- B partitions
// its body solutions into ≡-equivalence classes by the non-grouped head
// arguments k̄; each class yields one fact whose group argument is the set
// of X-values.  A transaction can change a class only if some body solution
// appeared or disappeared, and every such solution touches a delta of a
// body predicate — so regrouping enumerates the deltas to find the touched
// class keys, recomputes exactly those classes against the old and new
// states, and emits old-fact/new-fact pairs where they differ.

// classKey identifies one ≡-class: the head arguments at the non-grouped
// positions (the slot at the group index is ignored).
type classKey struct {
	idx  int // position in key order, indexes the per-key result slices
	hash uint64
	args []term.Term
}

// classKeys is a hash-chained set of class keys in first-seen order.
type classKeys struct {
	byHash map[uint64][]*classKey
	order  []*classKey
	gIdx   int
}

func newClassKeys(gIdx int) *classKeys {
	return &classKeys{byHash: map[uint64][]*classKey{}, gIdx: gIdx}
}

func (ck *classKeys) hashOf(args []term.Term) uint64 {
	h := term.HashSeed
	for i, a := range args {
		if i == ck.gIdx {
			continue
		}
		h = term.HashFold(h, a.Hash())
	}
	return h
}

// add records the class of args as touched (the group slot is ignored).
func (ck *classKeys) add(args []term.Term) {
	h := ck.hashOf(args)
	for _, k := range ck.byHash[h] {
		if term.EqualTermsExcept(k.args, args, ck.gIdx) {
			return
		}
	}
	k := &classKey{idx: len(ck.order), hash: h, args: append([]term.Term(nil), args...)}
	ck.byHash[h] = append(ck.byHash[h], k)
	ck.order = append(ck.order, k)
}

// find returns the recorded key for args, or nil.
func (ck *classKeys) find(args []term.Term) *classKey {
	for _, k := range ck.byHash[ck.hashOf(args)] {
		if term.EqualTermsExcept(k.args, args, ck.gIdx) {
			return k
		}
	}
	return nil
}

// regroup maintains one grouping rule across the transaction: it returns
// the old facts of the changed classes (deletion seeds), the new facts
// (insertion seeds), and the number of classes recomputed.
func regroup(x *eval.Exec, cr *eval.CompiledRule, s *txState) (delFacts, insFacts []*term.Fact, nClasses int, err error) {
	gIdx := cr.GroupIdx()
	keys := newClassKeys(gIdx)
	collect := func(db *store.DB, j int, delta *store.Relation) error {
		return cr.EnumerateDelta(x, db, j, delta, func(args []term.Term) error {
			keys.add(args)
			return nil
		})
	}
	for j, lit := range cr.Rule.Body {
		if !cr.HasDelta(j) {
			continue
		}
		// Solutions lost existed in the old state, solutions gained exist
		// in the new one; through a negated literal an insertion loses
		// solutions (the premise became false) and a deletion gains them.
		lost, gained := s.gDel, s.gIns
		if lit.Negated {
			lost, gained = gained, lost
		}
		if r := lost.rel(lit.Pred); r != nil {
			if err := collect(s.old, j, r); err != nil {
				return nil, nil, 0, err
			}
		}
		if r := gained.rel(lit.Pred); r != nil {
			if err := collect(s.w, j, r); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	if len(keys.order) == 0 {
		return nil, nil, 0, nil
	}
	oldSets, err := classSets(x, cr, s.old, keys)
	if err != nil {
		return nil, nil, 0, err
	}
	newSets, err := classSets(x, cr, s.w, keys)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, k := range keys.order {
		os, ns := oldSets[k.idx], newSets[k.idx]
		changed := (os == nil) != (ns == nil) || (os != nil && !term.Equal(os, ns))
		if !changed {
			continue
		}
		if os != nil {
			delFacts = append(delFacts, groupFact(cr, k.args, os))
		}
		if ns != nil {
			insFacts = append(insFacts, groupFact(cr, k.args, ns))
		}
	}
	return delFacts, insFacts, len(keys.order), nil
}

// classSets computes the group set of each touched class against db; a nil
// entry means the class has no body solutions there (no fact at all).  When
// every non-grouped head argument is a plain variable, each class is
// recomputed from its key bindings alone via the bound plan; otherwise one
// full enumeration is filtered to the touched keys.
func classSets(x *eval.Exec, cr *eval.CompiledRule, db *store.DB, keys *classKeys) ([]*term.Set, error) {
	sets := make([]*term.Set, len(keys.order))
	if cr.ClassBindable() {
		pre := unify.NewBindings()
		head := cr.Rule.Head
		for _, k := range keys.order {
			mark := pre.Mark()
			conflict := false
			for i, a := range head.Args {
				if i == keys.gIdx {
					continue
				}
				v := a.(term.Var)
				if ex, ok := pre.Lookup(v); ok {
					if !term.Equal(ex, k.args[i]) {
						conflict = true
						break
					}
					continue
				}
				pre.Bind(v, k.args[i])
			}
			if conflict {
				pre.Undo(mark)
				continue
			}
			var elems []term.Term
			err := cr.EnumerateBound(x, db, pre, func(args []term.Term) error {
				elems = append(elems, args[keys.gIdx])
				return nil
			})
			pre.Undo(mark)
			if err != nil {
				return nil, err
			}
			if len(elems) > 0 {
				sets[k.idx] = term.NewSet(elems...)
			}
		}
		return sets, nil
	}
	elems := make([][]term.Term, len(keys.order))
	err := cr.EnumerateDelta(x, db, -1, nil, func(args []term.Term) error {
		if k := keys.find(args); k != nil {
			elems[k.idx] = append(elems[k.idx], args[keys.gIdx])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, es := range elems {
		if len(es) > 0 {
			sets[i] = term.NewSet(es...)
		}
	}
	return sets, nil
}

// groupFact builds the head fact of one class: the key arguments with the
// group set at the group position.
func groupFact(cr *eval.CompiledRule, keyArgs []term.Term, set *term.Set) *term.Fact {
	out := make([]term.Term, len(keyArgs))
	copy(out, keyArgs)
	out[cr.GroupIdx()] = set
	return term.NewFact(cr.Rule.Head.Pred, out...)
}

// groupDerives is the rederivation test for grouping heads: the rule
// derives f iff f's class, recomputed against db, yields exactly f's set.
func groupDerives(x *eval.Exec, cr *eval.CompiledRule, db *store.DB, f *term.Fact) (bool, error) {
	h := cr.Rule.Head
	if f.Pred != h.Pred || len(f.Args) != len(h.Args) {
		return false, nil
	}
	gIdx := cr.GroupIdx()
	fset, ok := f.Args[gIdx].(*term.Set)
	if !ok {
		return false, nil
	}
	keys := newClassKeys(gIdx)
	keys.add(f.Args)
	sets, err := classSets(x, cr, db, keys)
	if err != nil {
		return false, err
	}
	return sets[0] != nil && term.Equal(sets[0], fset), nil
}
