// Package unify implements bindings (the θ of §3.2), binding application
// with built-in function evaluation, and matching of rule literals against
// ground U-facts.
//
// Binding application follows the paper's Aθ: variables are replaced
// simultaneously by elements of U and then all functions in the term are
// applied.  The built-in function scons(t, S) evaluates to {t} ∪ S when S is
// a set, and to "an object outside U" otherwise (§2.2) — represented here by
// an error.  Enumerated set patterns {t1,...,tn} (the parser's $set
// compound) evaluate to canonical sets, and the arithmetic functors
// +, -, *, /, neg evaluate on integers.
package unify

import (
	"errors"
	"fmt"

	"ldl1/internal/ast"
	"ldl1/internal/term"
)

// ErrOutsideU reports that binding application produced an object outside
// the universe U (e.g. scons onto a non-set, or arithmetic on non-integers).
var ErrOutsideU = errors.New("value outside the LDL1 universe U")

// ErrUnbound reports that a variable had no binding during full application.
var ErrUnbound = errors.New("unbound variable")

// SetPatternFunctor is the reserved functor the parser uses for enumerated
// sets containing variables, e.g. {X, Y, Z}.
const SetPatternFunctor = "$set"

// Bindings is a mutable binding environment.  It is an append-only stack of
// (variable, value) pairs rather than a map: rule bodies bind a handful of
// variables, so a linear scan beats string hashing, and the stack doubles as
// the trail — Undo is a truncation.  Callers never rebind a bound variable
// (matchRec checks Lookup first), so each live variable appears once.
type Bindings struct {
	pairs []binding
}

type binding struct {
	v term.Var
	t term.Term
}

// NewBindings creates an empty binding environment.
func NewBindings() *Bindings { return &Bindings{} }

// Lookup returns the value bound to v, if any.
func (b *Bindings) Lookup(v term.Var) (term.Term, bool) {
	for i := len(b.pairs) - 1; i >= 0; i-- {
		if b.pairs[i].v == v {
			return b.pairs[i].t, true
		}
	}
	return nil, false
}

// Bind records v := t (t must be ground, v must be unbound).
func (b *Bindings) Bind(v term.Var, t term.Term) {
	b.pairs = append(b.pairs, binding{v, t})
}

// Mark returns a trail position for later Undo.
func (b *Bindings) Mark() int { return len(b.pairs) }

// Undo removes all bindings made after mark.
func (b *Bindings) Undo(mark int) {
	b.pairs = b.pairs[:mark]
}

// Len returns the number of live bindings.
func (b *Bindings) Len() int { return len(b.pairs) }

// Apply performs full binding application Aθ: every variable must be bound,
// and all built-in functions are evaluated.  The result is a ground element
// of U, or an error (ErrUnbound, ErrOutsideU).
func Apply(t term.Term, b *Bindings) (term.Term, error) {
	switch t := t.(type) {
	case term.Atom, term.Int, term.Str, *term.Set:
		return t, nil
	case term.Var:
		v, ok := b.Lookup(t)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnbound, t)
		}
		return v, nil
	case *term.Group:
		return nil, fmt.Errorf("%w: grouping construct <%s> is not a value", ErrOutsideU, t.Inner)
	case *term.Compound:
		// Ground compounds with no interpreted functor anywhere inside are
		// already elements of U: return them unchanged instead of
		// rebuilding the tree (memoized O(1) checks, see NewCompound).
		if t.Pure() && term.IsGround(t) {
			return t, nil
		}
		if !term.IsInterpretedFunctor(t.Functor) {
			args := make([]term.Term, len(t.Args))
			for i, a := range t.Args {
				v, err := Apply(a, b)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return term.NewCompound(t.Functor, args...), nil
		}
		// An interpreted functor's arguments live only for the call.
		var arr [maxInterpretedArgs]term.Term
		args := arr[:0]
		if len(t.Args) > len(arr) {
			args = make([]term.Term, 0, len(t.Args))
		}
		for _, a := range t.Args {
			v, err := Apply(a, b)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		return evalCompound(t.Functor, args)
	}
	return nil, fmt.Errorf("unify: unknown term %v", t)
}

// maxInterpretedArgs is the number of arguments of an interpreted functor
// that Apply and ApplyPartial hold on the stack: arithmetic takes two, and
// longer enumerated sets are rare.
const maxInterpretedArgs = 4

// evalCompound applies the interpreted functor to ground arguments.  It
// keeps no reference to args.
func evalCompound(functor string, args []term.Term) (term.Term, error) {
	switch functor {
	case "scons":
		if len(args) != 2 {
			return nil, fmt.Errorf("%w: scons expects 2 arguments", ErrOutsideU)
		}
		s, ok := args[1].(*term.Set)
		if !ok {
			return nil, fmt.Errorf("%w: scons(%s, %s): second argument is not a set", ErrOutsideU, args[0], args[1])
		}
		return s.Add(args[0]), nil
	case SetPatternFunctor:
		return term.NewSet(args...), nil
	case "+", "-", "*", "/":
		if len(args) != 2 {
			return nil, fmt.Errorf("%w: %s expects 2 arguments", ErrOutsideU, functor)
		}
		x, xok := args[0].(term.Int)
		y, yok := args[1].(term.Int)
		if !xok || !yok {
			return nil, fmt.Errorf("%w: arithmetic on non-integers %s %s %s", ErrOutsideU, args[0], functor, args[1])
		}
		switch functor {
		case "+":
			return x + y, nil
		case "-":
			return x - y, nil
		case "*":
			return x * y, nil
		default:
			if y == 0 {
				return nil, fmt.Errorf("%w: division by zero", ErrOutsideU)
			}
			return x / y, nil
		}
	case "neg":
		if len(args) != 1 {
			return nil, fmt.Errorf("%w: neg expects 1 argument", ErrOutsideU)
		}
		x, ok := args[0].(term.Int)
		if !ok {
			return nil, fmt.Errorf("%w: neg on non-integer %s", ErrOutsideU, args[0])
		}
		return -x, nil
	}
	panic("unify: " + functor + " is not an interpreted functor")
}

// ApplyPartial substitutes bound variables and evaluates any built-in
// function whose arguments became ground, leaving unbound variables in
// place.  Used by the "=" built-in and by program transformations.
// An unbound variable comes back as the caller's own interface value, so
// the call does not allocate for it.
func ApplyPartial(t term.Term, b *Bindings) term.Term {
	switch u := t.(type) {
	case term.Var:
		if v, ok := b.Lookup(u); ok {
			return v
		}
	case *term.Group:
		return term.NewGroup(ApplyPartial(u.Inner, b))
	case *term.Compound:
		if u.Pure() && term.IsGround(u) {
			return t // already an element of U, nothing to substitute
		}
		if !term.IsInterpretedFunctor(u.Functor) {
			args := make([]term.Term, len(u.Args))
			for i, a := range u.Args {
				args[i] = ApplyPartial(a, b)
			}
			return term.NewCompound(u.Functor, args...)
		}
		// An interpreted functor's arguments live on the stack; they are
		// copied only when the term stays a compound: an argument is
		// unbound, or the value lies outside U.
		var arr [maxInterpretedArgs]term.Term
		args := arr[:0]
		if len(u.Args) > len(arr) {
			args = make([]term.Term, 0, len(u.Args))
		}
		ground := true
		for _, a := range u.Args {
			v := ApplyPartial(a, b)
			ground = ground && term.IsGround(v)
			args = append(args, v)
		}
		if ground {
			if v, err := evalCompound(u.Functor, args); err == nil {
				return v
			}
		}
		return term.NewCompound(u.Functor, append([]term.Term(nil), args...)...)
	}
	return t
}

// Match matches a rule term pattern against a ground value, extending b.
// On failure the bindings made during this call are undone.  Patterns may
// not invert built-in functions: a compound pattern only matches an
// uninterpreted compound value with the same functor and arity, and an
// interpreted one (scons, $set, arithmetic) is evaluated under b — after
// the rest of the pattern has bound what it can — and compared by value.
func Match(pattern, value term.Term, b *Bindings) bool {
	mark := b.Mark()
	late := false
	if matchRec(pattern, value, b, &late) && (!late || matchRec(pattern, value, b, nil)) {
		return true
	}
	b.Undo(mark)
	return false
}

// matchRec matches one pattern.  An interpreted compound with a variable
// still unbound is postponed when late is non-nil (*late is set and the
// match goes on), and fails otherwise; callers that postponed one match the
// whole pattern again, with late nil, once everything bindable is bound.
func matchRec(pattern, value term.Term, b *Bindings, late *bool) bool {
	switch p := pattern.(type) {
	case term.Var:
		if bound, ok := b.Lookup(p); ok {
			return term.Equal(bound, value)
		}
		b.Bind(p, value)
		return true
	case term.Atom, term.Int, term.Str, *term.Set:
		return term.Equal(pattern, value)
	case *term.Compound:
		// Ground terms and interpreted functors are compared by value.
		if term.IsGround(p) || !p.Pure() && isBuiltinFunctor(p.Functor) {
			v, err := Apply(p, b)
			if err != nil {
				if late != nil && errors.Is(err, ErrUnbound) {
					*late = true
					return true
				}
				return false
			}
			return term.Equal(v, value)
		}
		c, ok := value.(*term.Compound)
		if !ok || c.Functor != p.Functor || len(c.Args) != len(p.Args) {
			return false
		}
		for i := range p.Args {
			if !matchRec(p.Args[i], c.Args[i], b, late) {
				return false
			}
		}
		return true
	case *term.Group:
		return false
	}
	return false
}

// isBuiltinFunctor reports whether the functor is evaluated away by binding
// application; the list lives in term (IsInterpretedFunctor) so that
// NewCompound's purity memo and this check can never drift apart.
func isBuiltinFunctor(f string) bool { return term.IsInterpretedFunctor(f) }

// ApplyLit applies bindings to a literal, producing a ground U-fact.
func ApplyLit(l ast.Literal, b *Bindings) (*term.Fact, error) {
	args := make([]term.Term, len(l.Args))
	for i, a := range l.Args {
		v, err := Apply(a, b)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return term.NewFact(l.Pred, args...), nil
}

// MatchFact matches the (positive) literal pattern against a ground fact of
// the same predicate and arity, extending b; bindings are undone on failure.
// The arguments match as one pattern: an interpreted argument is evaluated
// once the others have bound its variables, so s(X, {X}) matches s(c, {c}).
func MatchFact(l ast.Literal, f *term.Fact, b *Bindings) bool {
	if l.Pred != f.Pred || len(l.Args) != len(f.Args) {
		return false
	}
	mark := b.Mark()
	late := false
	for i := range l.Args {
		if !matchRec(l.Args[i], f.Args[i], b, &late) {
			b.Undo(mark)
			return false
		}
	}
	for i := 0; late && i < len(l.Args); i++ {
		if !matchRec(l.Args[i], f.Args[i], b, nil) {
			b.Undo(mark)
			return false
		}
	}
	return true
}
