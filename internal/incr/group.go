package incr

import (
	"ldl1/internal/eval"
	"ldl1/internal/term"
)

// Grouping maintenance (§3.2).  A transaction can change an ≡-class of a
// grouping rule only if some body solution appeared or disappeared, and
// every such solution touches a delta of a body predicate — so regrouping
// enumerates the deltas into eval's one class table (eval.ClassTable) to
// find the touched classes; Rule.Regroup recomputes exactly those
// against the new state and emits old-fact/new-fact pairs where they
// differ.  A class's old set is the group argument of its fact in the old
// model when own holds — the rule is the only source of its predicate's
// facts there — and is recomputed against the old state otherwise.

// regroup maintains one grouping rule across the transaction: it returns
// the old facts of the changed classes (deletion seeds), the new facts
// (insertion seeds), and the number of classes regrouped.
func regroup(x *eval.Exec, cr *eval.Rule, s *txState, own bool) (delFacts, insFacts []*term.Fact, nClasses int, err error) {
	touched := cr.Classes()
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
			if err := cr.EnumerateDelta(x, s.old, j, r, touched.Touch); err != nil {
				return nil, nil, 0, err
			}
		}
		if r := gained.rel(lit.Pred); r != nil {
			if err := cr.EnumerateDelta(x, s.w, j, r, touched.Touch); err != nil {
				return nil, nil, 0, err
			}
		}
	}
	return cr.Regroup(x, &touched, s.old, s.w, own)
}
