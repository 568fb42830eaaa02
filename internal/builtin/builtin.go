// Package builtin evaluates the reserved LDL1 predicates: member/2,
// union/3 (§2.2), the partition/3 helper the paper uses in the part-cost
// example (§1), equality, disequality, and comparisons.
//
// Built-ins are moded: depending on which arguments are bound, a built-in
// acts as a test or as a generator of bindings.  The evaluator's join
// planner only schedules a built-in once one of its supported modes is
// satisfied; calling one earlier yields ErrInstantiation.
package builtin

import (
	"errors"
	"fmt"
	"math/bits"

	"ldl1/internal/ast"
	"ldl1/internal/lderr"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// ErrInstantiation is the sentinel every instantiation failure unwraps to;
// it is lderr.ErrInstantiation, so errors.Is works against either name.
// The errors themselves are typed *lderr.InstantiationError values naming
// the offending built-in and literal.
var ErrInstantiation = lderr.ErrInstantiation

// instErr builds the typed instantiation error for a literal.
func instErr(l ast.Literal) error {
	return &lderr.InstantiationError{Builtin: l.Pred, Literal: l.String()}
}

// maxEnumerate caps the size of sets that union/partition will enumerate
// splits of, to keep the exponential generator modes from running away.
const maxEnumerate = 20

// IsBuiltin reports whether pred is handled by this package: one of the
// reserved predicates of ast.IsBuiltinPred.
func IsBuiltin(pred string) bool { return ast.IsBuiltinPred(pred) }

// Eval evaluates the built-in literal under the bindings, invoking yield
// once per solution with b extended (bindings are undone between solutions
// and before returning).  A negated literal is evaluated as a test: all its
// variables must be bound, and it succeeds iff the positive form fails.
// partition and union/3 take the unions they compute from sets (nil: none),
// which hands back a set it holds instead of building an equal one again.
func Eval(l ast.Literal, b *unify.Bindings, sets *term.SetTable, yield func() error) error {
	if l.Negated {
		pos := l.Positive()
		holds := false
		probe := func() error {
			holds = true
			return errStop
		}
		if err := Eval(pos, b, sets, probe); err != nil && err != errStop {
			return err
		}
		if !holds {
			return yield()
		}
		return nil
	}
	switch l.Pred {
	case "true":
		return yield()
	case "false":
		return nil
	case "=":
		return evalEq(l, b, yield)
	case "/=":
		return evalNeq(l, b, yield)
	case "<", "<=", ">", ">=":
		return evalCompare(l, b, yield)
	case "member":
		return evalMember(l, b, yield)
	case "set":
		return evalSet(l, b, yield)
	case "union":
		return evalUnion(l, b, sets, yield)
	case "partition":
		return evalPartition(l, b, sets, yield)
	}
	return fmt.Errorf("builtin: unknown predicate %s/%d", l.Pred, l.Arity())
}

// errStop aborts enumeration early (internal sentinel).
var errStop = errors.New("stop")

func arity(l ast.Literal, n int) error {
	if len(l.Args) != n {
		return fmt.Errorf("builtin: %s expects %d arguments, got %d", l.Pred, n, len(l.Args))
	}
	return nil
}

func evalEq(l ast.Literal, b *unify.Bindings, yield func() error) error {
	if err := arity(l, 2); err != nil {
		return err
	}
	lhs := unify.ApplyPartial(l.Args[0], b)
	rhs := unify.ApplyPartial(l.Args[1], b)
	lg, rg := term.IsGround(lhs), term.IsGround(rhs)
	switch {
	case lg && rg:
		lv, err := unify.Apply(lhs, b)
		if err != nil {
			return nil // outside U: "=" is false (§2.2)
		}
		rv, err := unify.Apply(rhs, b)
		if err != nil {
			return nil
		}
		if term.Equal(lv, rv) {
			return yield()
		}
		return nil
	case rg:
		rv, err := unify.Apply(rhs, b)
		if err != nil {
			return nil
		}
		return matchYield(lhs, rv, b, yield)
	case lg:
		lv, err := unify.Apply(lhs, b)
		if err != nil {
			return nil
		}
		return matchYield(rhs, lv, b, yield)
	}
	return instErr(l)
}

func matchYield(pattern term.Term, value term.Term, b *unify.Bindings, yield func() error) error {
	mark := b.Mark()
	if unify.Match(pattern, value, b) {
		err := yield()
		b.Undo(mark)
		return err
	}
	return nil
}

func evalNeq(l ast.Literal, b *unify.Bindings, yield func() error) error {
	if err := arity(l, 2); err != nil {
		return err
	}
	lv, err := unify.Apply(l.Args[0], b)
	if err != nil {
		if errors.Is(err, unify.ErrUnbound) {
			return instErr(l)
		}
		// Outside U: /= is true (§2.2).
		return yield()
	}
	rv, err := unify.Apply(l.Args[1], b)
	if err != nil {
		if errors.Is(err, unify.ErrUnbound) {
			return instErr(l)
		}
		return yield()
	}
	if !term.Equal(lv, rv) {
		return yield()
	}
	return nil
}

func evalCompare(l ast.Literal, b *unify.Bindings, yield func() error) error {
	if err := arity(l, 2); err != nil {
		return err
	}
	lv, err := unify.Apply(l.Args[0], b)
	if err != nil {
		if errors.Is(err, unify.ErrUnbound) {
			return instErr(l)
		}
		return nil
	}
	rv, err := unify.Apply(l.Args[1], b)
	if err != nil {
		if errors.Is(err, unify.ErrUnbound) {
			return instErr(l)
		}
		return nil
	}
	c := term.Compare(lv, rv)
	ok := false
	switch l.Pred {
	case "<":
		ok = c < 0
	case "<=":
		ok = c <= 0
	case ">":
		ok = c > 0
	case ">=":
		ok = c >= 0
	}
	if ok {
		return yield()
	}
	return nil
}

// evalSet tests whether its single (bound) argument is a set.
func evalSet(l ast.Literal, b *unify.Bindings, yield func() error) error {
	if err := arity(l, 1); err != nil {
		return err
	}
	v, err := unify.Apply(l.Args[0], b)
	if err != nil {
		if errors.Is(err, unify.ErrUnbound) {
			return instErr(l)
		}
		return nil
	}
	if _, ok := v.(*term.Set); ok {
		return yield()
	}
	return nil
}

func evalMember(l ast.Literal, b *unify.Bindings, yield func() error) error {
	if err := arity(l, 2); err != nil {
		return err
	}
	sv := unify.ApplyPartial(l.Args[1], b)
	if !term.IsGround(sv) {
		return instErr(l)
	}
	sval, err := unify.Apply(sv, b)
	if err != nil {
		return nil
	}
	set, ok := sval.(*term.Set)
	if !ok {
		// member is false when the second argument is not a set (§2.2).
		return nil
	}
	elemPat := l.Args[0]
	for _, e := range set.Elems() {
		if err := matchYield(elemPat, e, b, yield); err != nil {
			return err
		}
	}
	return nil
}

// groundSet applies bindings to an argument and returns the set value, or
// (nil, false) if the argument is non-ground or not a set.
func groundSet(arg term.Term, b *unify.Bindings) (*term.Set, bool, error) {
	t := unify.ApplyPartial(arg, b)
	if !term.IsGround(t) {
		return nil, false, nil
	}
	v, err := unify.Apply(t, b)
	if err != nil {
		return nil, false, nil
	}
	s, ok := v.(*term.Set)
	if !ok {
		return nil, false, errNotASet
	}
	return s, true, nil
}

var errNotASet = errors.New("argument is not a set")

func evalUnion(l ast.Literal, b *unify.Bindings, sets *term.SetTable, yield func() error) error {
	if err := arity(l, 3); err != nil {
		return err
	}
	s1, ok1, err1 := groundSet(l.Args[0], b)
	s2, ok2, err2 := groundSet(l.Args[1], b)
	s3, ok3, err3 := groundSet(l.Args[2], b)
	// union is false when a bound argument is not a set (§2.2).
	if err1 == errNotASet || err2 == errNotASet || err3 == errNotASet {
		return nil
	}
	switch {
	case ok1 && ok2:
		// Compute S1 ∪ S2 and match the third argument.
		return matchYield(l.Args[2], sets.Union(s1, s2), b, yield)
	case ok3 && ok1:
		// Enumerate S2 with S1 ∪ S2 = S3: S2 ⊇ S3\S1, extended by any
		// subset of S1 ∩ S3.
		if !s1.SubsetOf(s3) {
			return nil
		}
		base := s3.Difference(s1)
		return enumSubsets(s1.Intersect(s3), func(sub *term.Set) error {
			return matchYield(l.Args[1], base.Union(sub), b, yield)
		})
	case ok3 && ok2:
		if !s2.SubsetOf(s3) {
			return nil
		}
		base := s3.Difference(s2)
		return enumSubsets(s2.Intersect(s3), func(sub *term.Set) error {
			return matchYield(l.Args[0], base.Union(sub), b, yield)
		})
	case ok3:
		// Enumerate all pairs (S1, S2) with S1 ∪ S2 = S3: every element
		// of S3 goes to S1, to S2, or to both.
		if s3.Len() > maxEnumerate {
			return fmt.Errorf("builtin: refusing to enumerate unions of a set with %d elements", s3.Len())
		}
		elems := s3.Elems()
		return enumThreeWay(len(elems), func(left, right uint64) error {
			mark := b.Mark()
			if unify.Match(l.Args[0], pick(elems, left), b) {
				if unify.Match(l.Args[1], pick(elems, right), b) {
					if err := yield(); err != nil {
						b.Undo(mark)
						return err
					}
				}
			}
			b.Undo(mark)
			return nil
		})
	}
	return instErr(l)
}

// pick returns the set of the elements of the canonical slice elems whose
// bit is set in mask.  A subsequence of a canonical order is canonical, so
// the set is built exactly sized and never sorted.
func pick(elems []term.Term, mask uint64) *term.Set {
	out := make([]term.Term, 0, bits.OnesCount64(mask))
	for i, e := range elems {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, e)
		}
	}
	return term.SortedSet(out)
}

// enumSubsets enumerates every subset of s.
func enumSubsets(s *term.Set, fn func(*term.Set) error) error {
	elems := s.Elems()
	if len(elems) > maxEnumerate {
		return fmt.Errorf("builtin: refusing to enumerate subsets of a set with %d elements", len(elems))
	}
	for mask := uint64(0); mask < 1<<len(elems); mask++ {
		if err := fn(pick(elems, mask)); err != nil {
			return err
		}
	}
	return nil
}

// enumThreeWay assigns each of n elements to left, right, or both, and
// calls fn with the bit masks of the two sides.
func enumThreeWay(n int, fn func(left, right uint64) error) error {
	var rec func(i int, left, right uint64) error
	rec = func(i int, left, right uint64) error {
		if i == n {
			return fn(left, right)
		}
		bit := uint64(1) << i
		for _, side := range [3][2]uint64{{bit, 0}, {0, bit}, {bit, bit}} {
			if err := rec(i+1, left|side[0], right|side[1]); err != nil {
				return err
			}
		}
		return nil
	}
	return rec(0, 0, 0)
}

// evalPartition implements partition(S, S1, S2): S is the disjoint union of
// the non-empty sets S1 and S2 (the non-empty requirement makes top-down
// recursion well-founded).  Every mode decides that one relation, so a body
// holds whatever order the planner calls it in:
//
//	(f,b,b) — test and compute S := S1 ∪ S2 (the mode used by
//	          bottom-up evaluation of the §1 part-cost program);
//	(b,b,f) and (b,f,b) — compute the complement;
//	(b,f,f) — enumerate all splits.
func evalPartition(l ast.Literal, b *unify.Bindings, sets *term.SetTable, yield func() error) error {
	if err := arity(l, 3); err != nil {
		return err
	}
	s, okS, errS := groundSet(l.Args[0], b)
	s1, ok1, err1 := groundSet(l.Args[1], b)
	s2, ok2, err2 := groundSet(l.Args[2], b)
	if errS == errNotASet || err1 == errNotASet || err2 == errNotASet {
		return nil
	}
	switch {
	case ok1 && ok2:
		if s1.Len() == 0 || s2.Len() == 0 {
			return nil
		}
		u := sets.DisjointUnion(s1, s2)
		if u == nil {
			return nil
		}
		return matchYield(l.Args[0], u, b, yield)
	case okS && ok1:
		if s1.Len() == 0 || s1.Len() == s.Len() || !s1.SubsetOf(s) {
			return nil
		}
		return matchYield(l.Args[2], s.Difference(s1), b, yield)
	case okS && ok2:
		if s2.Len() == 0 || s2.Len() == s.Len() || !s2.SubsetOf(s) {
			return nil
		}
		return matchYield(l.Args[1], s.Difference(s2), b, yield)
	case okS:
		elems := s.Elems()
		if len(elems) > maxEnumerate {
			return fmt.Errorf("builtin: refusing to enumerate partitions of a set with %d elements", len(elems))
		}
		// Masks 0 and all would leave one side empty.
		all := uint64(1)<<len(elems) - 1
		for mask := uint64(1); mask < all; mask++ {
			mark := b.Mark()
			if unify.Match(l.Args[1], pick(elems, mask), b) &&
				unify.Match(l.Args[2], pick(elems, all&^mask), b) {
				if err := yield(); err != nil {
					b.Undo(mark)
					return err
				}
			}
			b.Undo(mark)
		}
		return nil
	}
	return instErr(l)
}
