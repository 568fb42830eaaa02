// Package termgen draws random ground terms for property tests and fuzz
// targets.  Its names are adversarial: besides plain identifiers it draws
// names the lexer would read as something else — upper-case, '_', digit and
// title-case starts, separators, quotes, the keyword not, the empty name,
// bytes that are not UTF-8 and the reserved spellings of lists and sets —
// so a printer that forgets to quote one is caught.  It imports only
// internal/term, so the tests of any package, the store's included, can
// use it.
package termgen

import (
	"math"
	"math/rand"

	"ldl1/internal/term"
)

// names are the atom, functor and predicate names Term draws from.
var names = []string{
	"a", "b", "ab", "john", "x1", "a_b", "élan", "scons", "tuple", "neg",
	"", "X", "_", "_G1", "Abc", "12", "1a", "ǅx", "not", "nota",
	"John Smith", "q,a:r", "a~b", "a(b)", "a.b", "a'b", `a"b`, `a\b`, "'",
	"%c", "a\nb", "<-", "+", "-", "=", "\xff", "a\x00b",
	"[]", "{}", "$nil", "$cons", "$set",
}

// ints are the integers Term draws from.  Like names, they hold values
// whose texts run together into another's ("1" "2" and "12", "a" "b" and
// "ab"), so a cache key that joins texts without a separator collides.
var ints = []int64{0, 1, 2, 12, -1, -7, math.MaxInt64, math.MinInt64}

// name returns one of names.
func name(r *rand.Rand) string { return names[r.Intn(len(names))] }

// Term returns a random ground term nested at most depth levels: an atom,
// integer or string, or — above depth 0 — a compound of arity 0 to 3
// (lists and ground $set compounds among them), or a set of up to three
// elements.  The pools are small, so equal and nearly equal terms are
// common.
func Term(r *rand.Rand, depth int) term.Term {
	kind := r.Intn(6)
	if depth <= 0 {
		kind %= 3
	}
	switch kind {
	case 0:
		return term.Atom(name(r))
	case 1:
		return term.Int(ints[r.Intn(len(ints))])
	case 2:
		return term.Str(name(r))
	case 3:
		args := make([]term.Term, r.Intn(4))
		for i := range args {
			args[i] = Term(r, depth-1)
		}
		return term.NewCompound(name(r), args...)
	case 4:
		// A list, proper or not.
		l := Term(r, depth-1)
		if r.Intn(2) == 0 {
			l = term.EmptyList
		}
		for i := r.Intn(3); i >= 0; i-- {
			l = term.NewCompound(term.ConsFunctor, Term(r, depth-1), l)
		}
		return l
	}
	elems := make([]term.Term, r.Intn(4))
	for i := range elems {
		elems[i] = Term(r, depth-1)
	}
	return term.NewSet(elems...)
}
