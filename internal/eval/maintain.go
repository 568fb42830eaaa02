package eval

import (
	"errors"

	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Maintenance evaluation support (internal/incr).  Maintenance fires the
// variants Compile built of each Rule: a delta variant per body literal
// (insertions and the DRed deletion overestimate bind one literal to a delta
// relation), the head-bound variant for rederivation (is this fact still
// derivable?) and, for grouping rules, the same variant recomputing a single
// ≡-equivalence class (group.go).  Like evaluation, every enumeration orders
// its body against the database it reads, through the variant's memo; it
// runs on an Exec, so under the budget of the transaction's Driver, and only
// reads the database.

// errStop aborts an enumeration early (first-derivation checks).
var errStop = errors.New("eval: stop enumeration")

// matchablePattern reports whether unify.MatchFact can invert the pattern
// against a ground value: variables, constants, sets, ground terms, and
// free (uninterpreted) compounds over matchable arguments.  Non-ground
// interpreted functors (arithmetic, scons) cannot be inverted.
func matchablePattern(t term.Term) bool {
	switch t := t.(type) {
	case term.Var, term.Atom, term.Int, term.Str, *term.Set:
		return true
	case *term.Compound:
		if term.IsGround(t) {
			return true
		}
		if term.IsInterpretedFunctor(t.Functor) {
			return false
		}
		for _, a := range t.Args {
			if !matchablePattern(a) {
				return false
			}
		}
		return true
	}
	return false
}

// HasDelta reports whether body literal j can carry a delta (false for
// built-ins, which never change).
func (cr *Rule) HasDelta(j int) bool {
	return j >= 0 && j < len(cr.delta) && cr.delta[j] != nil
}

// Delta returns the variant whose delta literal is body literal j; nil
// unless HasDelta(j).
func (cr *Rule) Delta(j int) *Variant { return cr.delta[j] }

// EnumerateDelta enumerates the body solutions of the rule against db, with
// body literal j (HasDelta(j)) restricted to the facts of delta, and yields
// the head arguments of each.  For a negated literal j the positive variant
// is enumerated: the solutions gained or lost as the negated predicate
// shrank or grew.  args is valid only for the duration of the call.
func (cr *Rule) EnumerateDelta(x *Exec, db *store.DB, j int, delta *store.Relation, yield func(args []term.Term) error) error {
	return x.heads(cr.delta[j], nil, db, delta, x.bindings(), yield)
}

// Derives reports whether the rule derives f from db in one step: the
// rederivation test of delete-and-rederive.
func (cr *Rule) Derives(x *Exec, db *store.DB, f *term.Fact) (bool, error) {
	h := cr.Rule.Head
	if f.Pred != h.Pred || len(f.Args) != len(h.Args) {
		return false, nil
	}
	if cr.gIdx >= 0 {
		// f's class, recomputed against db, must yield exactly f's set.
		t := cr.Classes()
		c := t.add(f.Args)
		if err := cr.recompute(x, db, &t); err != nil {
			return false, err
		}
		s := c.take()
		return s != nil && term.Equal(s, f.Args[cr.gIdx]), nil
	}
	// A head the matcher can invert seeds the bindings, and the bound plan
	// runs from there; otherwise (e.g. arithmetic in the head) the whole
	// body is enumerated.  Either way the first solution whose head is f
	// answers.
	v, b := cr.base, x.bindings()
	if cr.headMatchable {
		if !unify.MatchFact(h, f, b) {
			return false, nil
		}
		v = cr.bound
	}
	found := false
	err := x.heads(v, nil, db, nil, b, func(args []term.Term) error {
		for i := range args {
			if !term.Equal(args[i], f.Args[i]) {
				return nil
			}
		}
		found = true
		return errStop
	})
	if err != nil && !errors.Is(err, errStop) {
		return false, err
	}
	return found, nil
}
