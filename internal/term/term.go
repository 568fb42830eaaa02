// Package term implements the LDL1 universe U: simple terms (constants,
// integers, strings, compound terms), variables, and canonical finite sets.
//
// The universe U of the paper (§2.2) is the omega-closure of the Herbrand
// universe under finite subsets and function application.  Every ground term
// in this package is an element of U; sets are kept in a canonical
// (sorted, duplicate-free) form so that structural equality of terms
// coincides with equality in U.
package term

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Kind discriminates the concrete representation of a Term.
type Kind uint8

// The term kinds, in canonical order (used by Compare).
const (
	KindInt Kind = iota
	KindAtom
	KindStr
	KindVar
	KindCompound
	KindSet
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindAtom:
		return "atom"
	case KindStr:
		return "string"
	case KindVar:
		return "var"
	case KindCompound:
		return "compound"
	case KindSet:
		return "set"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Term is an LDL1 term.  Ground terms are elements of the universe U.
type Term interface {
	Kind() Kind
	// Key returns a canonical encoding of the term.  Two terms are equal
	// (as elements of U, or syntactically for non-ground terms) iff their
	// keys are equal.  Key is for rendering, debugging and tests; identity
	// on hot paths (store, eval) goes through Hash and Equal.
	Key() string
	// Hash returns a structural 64-bit FNV-1a digest: equal terms have
	// equal hashes.  Memoized on Compound and Set.
	Hash() uint64
	// String returns the concrete LDL1 syntax for the term.
	String() string
}

// Atom is a symbolic constant, e.g. john.
type Atom string

// Int is an integer constant.
type Int int64

// Str is a string constant, written "like this".
type Str string

// Var is a logic variable, e.g. X.  The parser renames anonymous variables
// ("_") apart, so distinct occurrences never share a name.
type Var string

// Anonymous reports whether v is the parser's renaming of "_" (_G1, _G2,
// ...): it binds like any variable but is never an answer column.
func (v Var) Anonymous() bool {
	n, ok := strings.CutPrefix(string(v), "_G")
	return ok && n != "" && strings.Trim(n, "0123456789") == ""
}

// Compound is an uninterpreted function term f(t1,...,tn).  The built-in
// binary function scons is never stored as a Compound in ground data: it is
// evaluated away into a Set during binding application (see Eval).
type Compound struct {
	Functor string
	Args    []Term

	hash   uint64     // memoised structural hash, 0 = unset
	ground groundMemo // memoised IsGround answer
	pure   bool       // no interpreted functor or group anywhere inside
}

// groundMemo is a tri-state groundness memo: unknown for terms built as
// struct literals (tests), yes/no when set by NewCompound.
type groundMemo uint8

const (
	groundUnknown groundMemo = iota
	groundYes
	groundNo
)

// Set is a finite set in U, held canonically: elements sorted by Compare
// with duplicates removed.  The zero value is the empty set {}.
type Set struct {
	elems []Term
	hash  uint64
}

func (Atom) Kind() Kind      { return KindAtom }
func (Int) Kind() Kind       { return KindInt }
func (Str) Kind() Kind       { return KindStr }
func (Var) Kind() Kind       { return KindVar }
func (*Compound) Kind() Kind { return KindCompound }
func (*Set) Kind() Kind      { return KindSet }

func (a Atom) Key() string { return "a:" + string(a) }
func (i Int) Key() string  { return "i:" + strconv.FormatInt(int64(i), 10) }
func (s Str) Key() string  { return "s:" + strconv.Quote(string(s)) }
func (v Var) Key() string  { return "v:" + string(v) }

// Keys are rendered on demand, never memoized: no field of a term is
// written after its constructor returns.
func (c *Compound) Key() string { return renderKey(c) }
func (s *Set) Key() string      { return renderKey(s) }

func renderKey(t Term) string {
	var b strings.Builder
	writeKey(&b, t)
	return b.String()
}

// writeKey renders the canonical key of t into b.
func writeKey(b *strings.Builder, t Term) {
	switch t := t.(type) {
	case *Compound:
		b.WriteString("c:")
		b.WriteString(strconv.Itoa(len(t.Functor)))
		b.WriteByte('~')
		b.WriteString(t.Functor)
		b.WriteByte('(')
		writeKeys(b, t.Args)
		b.WriteByte(')')
	case *Set:
		b.WriteString("S:{")
		writeKeys(b, t.elems)
		b.WriteByte('}')
	default:
		b.WriteString(t.Key())
	}
}

func writeKeys(b *strings.Builder, ts []Term) {
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(',')
		}
		writeKey(b, t)
	}
}

func (a Atom) String() string {
	if a == EmptyList {
		return "[]"
	}
	return string(a)
}
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }
func (s Str) String() string { return strconv.Quote(string(s)) }
func (v Var) String() string { return string(v) }

func (c *Compound) String() string { return string(AppendText(nil, c)) }
func (s *Set) String() string      { return string(AppendText(nil, s)) }

// AppendText appends the concrete LDL1 syntax of t — what t.String()
// returns — to dst and returns the extended slice.
func AppendText(dst []byte, t Term) []byte {
	switch t := t.(type) {
	case Atom:
		return append(dst, t.String()...)
	case Int:
		return strconv.AppendInt(dst, int64(t), 10)
	case Str:
		return strconv.AppendQuote(dst, string(t))
	case Var:
		return append(dst, t...)
	case *Set:
		return appendSeq(append(dst, '{'), t.elems, '}')
	case *Group:
		return append(AppendText(append(dst, '<'), t.Inner), '>')
	case *Compound:
		// Lists render in brackets, the parser's enumerated-set pattern in
		// braces, and binary arithmetic infix (parenthesized, so it
		// re-parses unambiguously).
		switch {
		case t.Functor == ConsFunctor && len(t.Args) == 2:
			return appendList(dst, t)
		case t.Functor == "$set":
			return appendSeq(append(dst, '{'), t.Args, '}')
		case len(t.Args) == 2 && (t.Functor == "+" || t.Functor == "-" || t.Functor == "*" || t.Functor == "/"):
			dst = append(AppendText(append(dst, '('), t.Args[0]), ' ')
			dst = append(append(dst, t.Functor...), ' ')
			return append(AppendText(dst, t.Args[1]), ')')
		}
		return appendCall(dst, t.Functor, t.Args)
	}
	panic("term: unknown kind")
}

// appendCall renders name(args...), or name alone when there are no args.
func appendCall(dst []byte, name string, args []Term) []byte {
	dst = append(dst, name...)
	if len(args) == 0 {
		return dst
	}
	return appendSeq(append(dst, '('), args, ')')
}

// appendSeq renders ts separated by ", " and then the closing byte.
func appendSeq(dst []byte, ts []Term, closing byte) []byte {
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendText(dst, t)
	}
	return append(dst, closing)
}

// NewCompound builds f(args...), computing the structural hash and the
// groundness/purity memos eagerly so the term can be shared across
// goroutines without lazy writes.
func NewCompound(functor string, args ...Term) *Compound {
	c := &Compound{Functor: functor, Args: args}
	c.ground = groundYes
	c.pure = !IsInterpretedFunctor(functor)
	for _, a := range args {
		if !IsGround(a) {
			c.ground = groundNo
		}
		if sub, ok := a.(*Compound); ok {
			if !sub.Pure() {
				c.pure = false
			}
		} else if _, ok := a.(*Group); ok {
			c.pure = false
		}
	}
	c.Hash()
	return c
}

// Pure reports that the compound contains no interpreted functor (scons,
// $set, arithmetic) and no grouping construct anywhere: binding application
// can return it unchanged when it is also ground.
func (c *Compound) Pure() bool { return c.pure }

// IsInterpretedFunctor reports whether functor names a built-in function
// that binding application evaluates away (§2.2): set construction,
// enumerated set patterns, and integer arithmetic.
func IsInterpretedFunctor(f string) bool {
	switch f {
	case "scons", "$set", "+", "-", "*", "/", "neg":
		return true
	}
	return false
}

// EmptySet is the canonical empty set {}.
var EmptySet = newEmptySet()

func newEmptySet() *Set {
	s := &Set{}
	s.Hash() // pre-memoize: EmptySet is shared globally
	return s
}

// NewSet builds the canonical set containing elems (duplicates removed,
// elements sorted).  All elements must be ground; callers enforce this.
func NewSet(elems ...Term) *Set {
	es := make([]Term, len(elems))
	copy(es, elems)
	slices.SortFunc(es, Compare)
	return SortedSet(slices.CompactFunc(es, Equal))
}

// SortedSet wraps elems, which must already be strictly increasing by
// Compare, as a set without copying or sorting it: the set takes the slice
// over.  The hash memo is written before the set is returned.
func SortedSet(elems []Term) *Set {
	if len(elems) == 0 {
		return EmptySet
	}
	s := &Set{elems: elems}
	s.Hash() // eager memo: sets are shared across goroutines
	return s
}

// Len returns the cardinality of the set.
func (s *Set) Len() int { return len(s.elems) }

// Elems returns the canonical (sorted) element slice.  Callers must not
// mutate it.
func (s *Set) Elems() []Term { return s.elems }

// Contains reports whether x is an element of s.
func (s *Set) Contains(x Term) bool {
	_, ok := slices.BinarySearchFunc(s.elems, x, Compare)
	return ok
}

// SubsetOf reports s ⊆ t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.Len() > t.Len() {
		return false
	}
	i := 0
	for _, e := range s.elems {
		for i < len(t.elems) && Compare(t.elems[i], e) < 0 {
			i++
		}
		if i >= len(t.elems) || Compare(t.elems[i], e) != 0 {
			return false
		}
		i++
	}
	return true
}

// Disjoint reports s ∩ t = {}.
func (s *Set) Disjoint(t *Set) bool {
	_, n := merge(nil, s.elems, t.elems, inBoth)
	return n == 0
}

// Union returns s ∪ t.
func (s *Set) Union(t *Set) *Set { return s.combine(t, inS|inT|inBoth) }

// Intersect returns s ∩ t.
func (s *Set) Intersect(t *Set) *Set { return s.combine(t, inBoth) }

// Difference returns s \ t.
func (s *Set) Difference(t *Set) *Set { return s.combine(t, inS) }

// Add returns s ∪ {x}: the interpretation of scons(x, s) (§2.2).
func (s *Set) Add(x Term) *Set {
	i, found := slices.BinarySearchFunc(s.elems, x, Compare)
	if found {
		return s
	}
	es := make([]Term, len(s.elems)+1)
	copy(es, s.elems[:i])
	es[i] = x
	copy(es[i+1:], s.elems[i:])
	return SortedSet(es)
}

// Where an element of a merge of s and t occurs.
const (
	inS uint8 = 1 << iota // in s only
	inT                   // in t only
	inBoth
)

// combine returns the set of the elements of s and t that keep selects, as
// one merge of the two canonical slices: a counting walk sizes the result
// exactly, and a result as long as an operand it contains, or is contained
// in, is that operand.
func (s *Set) combine(t *Set, keep uint8) *Set {
	_, n := merge(nil, s.elems, t.elems, keep)
	switch {
	case n == len(s.elems) && (keep&inT == 0 || keep&(inS|inBoth) == inS|inBoth):
		return s
	case n == len(t.elems) && (keep&inS == 0 || keep&(inT|inBoth) == inT|inBoth):
		return t
	}
	out, _ := merge(make([]Term, 0, n), s.elems, t.elems, keep)
	return SortedSet(out)
}

// merge walks the canonical slices a (of s) and b (of t) in step and counts
// the elements keep selects, appending them in canonical order to out unless
// out is nil.
func merge(out, a, b []Term, keep uint8) ([]Term, int) {
	n, i, j := 0, 0, 0
	for i < len(a) || j < len(b) {
		side, e := inBoth, Term(nil)
		switch {
		case j == len(b):
			if keep&inS == 0 {
				return out, n
			}
			side, e = inS, a[i]
			i++
		case i == len(a):
			if keep&inT == 0 {
				return out, n
			}
			side, e = inT, b[j]
			j++
		default:
			switch c := Compare(a[i], b[j]); {
			case c < 0:
				side, e = inS, a[i]
				i++
			case c > 0:
				side, e = inT, b[j]
				j++
			default:
				e = a[i]
				i++
				j++
			}
		}
		if keep&side != 0 {
			n++
			if out != nil {
				out = append(out, e)
			}
		}
	}
	return out, n
}

// Equal reports structural equality of two terms (equality in U for ground
// terms).  It is the allocation-free hot-path counterpart of Compare: shared
// pointers short-circuit, memoized hash mismatch is a constant-time
// disequality certificate, and only hash-equal heap terms are walked.
func Equal(a, b Term) bool {
	switch x := a.(type) {
	case Int:
		y, ok := b.(Int)
		return ok && x == y
	case Atom:
		y, ok := b.(Atom)
		return ok && x == y
	case Str:
		y, ok := b.(Str)
		return ok && x == y
	case Var:
		y, ok := b.(Var)
		return ok && x == y
	case *Compound:
		y, ok := b.(*Compound)
		if !ok {
			return false
		}
		if x == y {
			return true
		}
		if x.hash != 0 && y.hash != 0 && x.hash != y.hash {
			return false
		}
		if x.Functor != y.Functor || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Set:
		y, ok := b.(*Set)
		if !ok {
			return false
		}
		if x == y {
			return true
		}
		if x.hash != 0 && y.hash != 0 && x.hash != y.hash {
			return false
		}
		if len(x.elems) != len(y.elems) {
			return false
		}
		for i := range x.elems {
			if !Equal(x.elems[i], y.elems[i]) {
				return false
			}
		}
		return true
	case *Group:
		y, ok := b.(*Group)
		return ok && Equal(x.Inner, y.Inner)
	}
	panic("term: unknown kind")
}

// Compare imposes a deterministic total order on terms: first by Kind, then
// by natural value order within the kind (integers numerically, atoms and
// strings lexicographically, compounds by functor, arity, then arguments,
// sets by cardinality-aware lexicographic element order).
func Compare(a, b Term) int {
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		return int(ka) - int(kb)
	}
	switch ka {
	case KindInt:
		x, y := a.(Int), b.(Int)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case KindAtom:
		return strings.Compare(string(a.(Atom)), string(b.(Atom)))
	case KindStr:
		return strings.Compare(string(a.(Str)), string(b.(Str)))
	case KindVar:
		return strings.Compare(string(a.(Var)), string(b.(Var)))
	case KindCompound:
		x, y := a.(*Compound), b.(*Compound)
		if c := strings.Compare(x.Functor, y.Functor); c != 0 {
			return c
		}
		if c := len(x.Args) - len(y.Args); c != 0 {
			return c
		}
		for i := range x.Args {
			if c := Compare(x.Args[i], y.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	case KindSet:
		x, y := a.(*Set), b.(*Set)
		n := min(len(x.elems), len(y.elems))
		for i := 0; i < n; i++ {
			if c := Compare(x.elems[i], y.elems[i]); c != 0 {
				return c
			}
		}
		return len(x.elems) - len(y.elems)
	case KindGroup:
		return Compare(a.(*Group).Inner, b.(*Group).Inner)
	}
	panic("term: unknown kind")
}

// IsGround reports whether t contains no variables.
func IsGround(t Term) bool {
	switch t := t.(type) {
	case Var:
		return false
	case *Group:
		// Grouping constructs are syntax, never elements of U.
		return false
	case *Compound:
		switch t.ground {
		case groundYes:
			return true
		case groundNo:
			return false
		}
		// Struct-literal construction (tests): walk without memoizing, so
		// shared terms are never written after publication.
		for _, a := range t.Args {
			if !IsGround(a) {
				return false
			}
		}
		return true
	default:
		// Atoms, ints, strings, and sets (which are ground by
		// construction) have no variables.
		return true
	}
}

// Vars appends the variables of t to dst in first-occurrence order, skipping
// names already in seen, and returns the extended slice.
func Vars(t Term, seen map[Var]bool, dst []Var) []Var {
	switch t := t.(type) {
	case Var:
		if !seen[t] {
			seen[t] = true
			dst = append(dst, t)
		}
	case *Group:
		dst = Vars(t.Inner, seen, dst)
	case *Compound:
		for _, a := range t.Args {
			dst = Vars(a, seen, dst)
		}
	}
	return dst
}

// VarsOf returns the variables of t in first-occurrence order.
func VarsOf(t Term) []Var {
	switch t := t.(type) {
	case Var:
		return []Var{t}
	case *Group, *Compound:
		return Vars(t, map[Var]bool{}, nil)
	default:
		return nil // constants, ground sets, ground facts
	}
}
