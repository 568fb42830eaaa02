// Package types infers per-predicate argument signatures for LDL1
// programs by abstract interpretation: ground facts fix concrete shapes,
// grouping `<X>` produces set-terms, built-ins constrain their arguments
// (arithmetic to integers, member/union/partition to sets), and `=`-chains
// propagate all of it through rule bodies to heads, stratum by stratum,
// until fixpoint.
//
// The abstract domain is a finite lattice of term types: a bitset over the
// five ground term kinds (int, atom, string, set, compound), refined — to a
// bounded nesting depth — by a set's element type and a compound's functor
// shape.  Joins (⊔) accumulate what a predicate argument can hold across
// rules; meets (⊓) refine what a variable can hold within one rule body.
// ⊤ (every kind, no refinement) means "unknown"; ⊥ (no kind) means "no
// ground term fits", which proves dead rules and empty predicates.
//
// Its consumers are the analyzer's LDL200 family and the signature
// surfaces (vet -sigs, ExplainQuery's header, the REPL's :check); the
// evaluator plans from the database alone and never reads a signature.
package types

import (
	"math/bits"
	"strings"

	"ldl1/internal/term"
)

// Kind is a bitset over the ground term kinds of the universe U (§2.2).
type Kind uint8

// The kind bits.  Var has no bit: variables are typed by what they can be
// bound to, never as a kind of their own.
const (
	Int   Kind = 1 << iota // integer constants
	Atom                   // symbolic constants
	Str                    // string constants
	SetK                   // finite sets
	CompK                  // uninterpreted compound terms

	// AllKinds is the kind component of ⊤.
	AllKinds = Int | Atom | Str | SetK | CompK
)

// maxDepth bounds type nesting (set elements, functor arguments): beyond
// it, refinements widen to "any".  Keeps the lattice finite so the
// fixpoint terminates even for programs that build ever-deeper terms
// (scons around a recursive predicate).
const maxDepth = 3

// Type is one abstract value: the kinds a term may have, with optional
// refinements.  The zero value is ⊥ (no ground term).
type Type struct {
	Kinds Kind
	// Elem refines SetK: the type of the set's elements.  nil = unknown
	// ("set of anything"); a pointer to ⊥ is the empty set's element type
	// ({} has no elements, so ⊥ is exact).
	Elem *Type
	// Shape refines CompK: the functor and argument types.  nil = any
	// compound.
	Shape *Shape
}

// Shape is a compound-term refinement f(τ1,...,τn).
type Shape struct {
	Functor string
	Args    []Type
}

// Top is ⊤: any ground term.
func Top() Type { return Type{Kinds: AllKinds} }

// IsBottom reports τ = ⊥: no ground term has this type.
func (t Type) IsBottom() bool { return t.Kinds == 0 }

// IsTop reports τ = ⊤ (all kinds, no refinement).
func (t Type) IsTop() bool {
	return t.Kinds == AllKinds && t.Elem == nil && t.Shape == nil
}

// ElemType returns the element type of a set-typed value: Elem if refined,
// ⊤ otherwise.
func (t Type) ElemType() Type {
	if t.Elem != nil {
		return *t.Elem
	}
	return Top()
}

// Singletons and constructors.

// OfKind returns the unrefined type of one kind bit.
func OfKind(k Kind) Type { return Type{Kinds: k} }

// SetOf returns set(elem).
func SetOf(elem Type) Type {
	if elem.IsTop() {
		return Type{Kinds: SetK}
	}
	e := elem
	return Type{Kinds: SetK, Elem: &e}
}

// Join is the least upper bound: what a value can be if it can be a or b.
func Join(a, b Type) Type {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	out := Type{Kinds: a.Kinds | b.Kinds}
	switch {
	case a.Kinds&SetK != 0 && b.Kinds&SetK != 0:
		if a.Elem != nil && b.Elem != nil {
			e := Join(*a.Elem, *b.Elem)
			if !e.IsTop() {
				out.Elem = &e
			}
		}
	case a.Kinds&SetK != 0:
		out.Elem = a.Elem
	case b.Kinds&SetK != 0:
		out.Elem = b.Elem
	}
	switch {
	case a.Kinds&CompK != 0 && b.Kinds&CompK != 0:
		if sa, sb := a.Shape, b.Shape; sa != nil && sb != nil &&
			sa.Functor == sb.Functor && len(sa.Args) == len(sb.Args) {
			args := make([]Type, len(sa.Args))
			for i := range args {
				args[i] = Join(sa.Args[i], sb.Args[i])
			}
			out.Shape = &Shape{Functor: sa.Functor, Args: args}
		}
	case a.Kinds&CompK != 0:
		out.Shape = a.Shape
	case b.Kinds&CompK != 0:
		out.Shape = b.Shape
	}
	return out
}

// Meet is the greatest lower bound: what a value must be if it must be
// both a and b.  Note that set(int) ⊓ set(atom) is set(⊥), not ⊥: both
// types contain the empty set.  A functor mismatch, by contrast, kills the
// compound bit — f(X) and g(Y) share no ground term.
func Meet(a, b Type) Type {
	out := Type{Kinds: a.Kinds & b.Kinds}
	if out.Kinds&SetK != 0 {
		switch {
		case a.Elem != nil && b.Elem != nil:
			e := Meet(*a.Elem, *b.Elem)
			out.Elem = &e
		case a.Elem != nil:
			out.Elem = a.Elem
		case b.Elem != nil:
			out.Elem = b.Elem
		}
	}
	if out.Kinds&CompK != 0 {
		sa, sb := a.Shape, b.Shape
		switch {
		case sa == nil:
			out.Shape = sb
		case sb == nil:
			out.Shape = sa
		case sa.Functor != sb.Functor || len(sa.Args) != len(sb.Args):
			out.Kinds &^= CompK
		default:
			args := make([]Type, len(sa.Args))
			dead := false
			for i := range args {
				args[i] = Meet(sa.Args[i], sb.Args[i])
				if args[i].IsBottom() {
					dead = true
				}
			}
			if dead {
				out.Kinds &^= CompK
			} else {
				out.Shape = &Shape{Functor: sa.Functor, Args: args}
			}
		}
	}
	if out.Kinds&CompK == 0 {
		out.Shape = nil
	}
	if out.Kinds&SetK == 0 {
		out.Elem = nil
	}
	return out
}

// Disjoint reports that a and b share no kind — no ground term has both
// types, and term.Compare between them is decided by kind order alone
// (a constant result).  ⊥ is not "disjoint" from anything: it is dead.
func Disjoint(a, b Type) bool {
	return a.Kinds != 0 && b.Kinds != 0 && a.Kinds&b.Kinds == 0
}

// Equal reports structural equality (used for fixpoint convergence).
func Equal(a, b Type) bool {
	if a.Kinds != b.Kinds {
		return false
	}
	switch {
	case a.Elem == nil && b.Elem != nil, a.Elem != nil && b.Elem == nil:
		return false
	case a.Elem != nil && !Equal(*a.Elem, *b.Elem):
		return false
	}
	sa, sb := a.Shape, b.Shape
	switch {
	case sa == nil && sb == nil:
		return true
	case sa == nil || sb == nil:
		return false
	case sa.Functor != sb.Functor || len(sa.Args) != len(sb.Args):
		return false
	}
	for i := range sa.Args {
		if !Equal(sa.Args[i], sb.Args[i]) {
			return false
		}
	}
	return true
}

// widen truncates refinements below depth d, keeping the lattice finite.
func widen(t Type, d int) Type {
	if d <= 0 {
		return Type{Kinds: t.Kinds}
	}
	if t.Elem != nil {
		e := widen(*t.Elem, d-1)
		t.Elem = &e
	}
	if t.Shape != nil {
		args := make([]Type, len(t.Shape.Args))
		for i, a := range t.Shape.Args {
			args[i] = widen(a, d-1)
		}
		t.Shape = &Shape{Functor: t.Shape.Functor, Args: args}
	}
	return t
}

// MixedKinds reports a type that is provably heterogeneous: more than one
// kind, but not ⊤ (⊤ means "unknown", not "proven mixed").
func (t Type) MixedKinds() bool {
	n := bits.OnesCount8(uint8(t.Kinds))
	return n >= 2 && t.Kinds != AllKinds
}

// String renders the type in a compact source-like notation: "int",
// "atom", "int|atom", "set(int)", "f(int, any)", "any" for ⊤, "none" for
// ⊥.
func (t Type) String() string {
	if t.IsBottom() {
		return "none"
	}
	if t.IsTop() {
		return "any"
	}
	var parts []string
	if t.Kinds&Int != 0 {
		parts = append(parts, "int")
	}
	if t.Kinds&Atom != 0 {
		parts = append(parts, "atom")
	}
	if t.Kinds&Str != 0 {
		parts = append(parts, "string")
	}
	if t.Kinds&SetK != 0 {
		if t.Elem != nil {
			parts = append(parts, "set("+t.Elem.String()+")")
		} else {
			parts = append(parts, "set(any)")
		}
	}
	if t.Kinds&CompK != 0 {
		if s := t.Shape; s != nil {
			args := make([]string, len(s.Args))
			for i, a := range s.Args {
				args[i] = a.String()
			}
			parts = append(parts, s.Functor+"("+strings.Join(args, ", ")+")")
		} else {
			parts = append(parts, "compound")
		}
	}
	return strings.Join(parts, "|")
}

// ofGround returns the exact type of a ground term, to depth levels.
func ofGround(t term.Term, depth int) Type {
	switch t := t.(type) {
	case term.Int:
		return Type{Kinds: Int}
	case term.Atom:
		return Type{Kinds: Atom}
	case term.Str:
		return Type{Kinds: Str}
	case *term.Set:
		if depth <= 0 {
			return Type{Kinds: SetK}
		}
		elem := Type{} // ⊥: the empty set has no elements
		for _, e := range t.Elems() {
			elem = Join(elem, ofGround(e, depth-1))
		}
		if len(t.Elems()) == 0 {
			return Type{Kinds: SetK, Elem: &elem}
		}
		return SetOf(elem)
	case *term.Compound:
		if term.IsInterpretedFunctor(t.Functor) {
			// Ground interpreted terms evaluate away; approximate by what
			// they evaluate to.
			switch t.Functor {
			case "scons", "$set":
				return Type{Kinds: SetK}
			default: // arithmetic
				return Type{Kinds: Int}
			}
		}
		if depth <= 0 {
			return Type{Kinds: CompK}
		}
		args := make([]Type, len(t.Args))
		for i, a := range t.Args {
			args[i] = ofGround(a, depth-1)
		}
		return Type{Kinds: CompK, Shape: &Shape{Functor: t.Functor, Args: args}}
	}
	return Top() // variables, groups: not ground, unconstrained
}
