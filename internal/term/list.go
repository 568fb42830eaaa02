package term

// Lists are ordinary simple terms built from the reserved functor "$cons"
// and the empty-list constant, exactly "as in logic programming" (§2.1
// remark).  They live in U like any other function terms; only parsing and
// printing treat them specially.

// ConsFunctor is the reserved binary list constructor.
const ConsFunctor = "$cons"

// EmptyList is the empty list constant [].
var EmptyList = Atom("$nil")

// NewList builds the list [elems...].
func NewList(elems ...Term) Term {
	tail := Term(EmptyList)
	for i := len(elems) - 1; i >= 0; i-- {
		tail = NewCompound(ConsFunctor, elems[i], tail)
	}
	return tail
}

// Cons builds [head | tail].
func Cons(head, tail Term) Term { return NewCompound(ConsFunctor, head, tail) }

// IsList reports whether t is a proper list (ends in []) and returns its
// elements.
func IsList(t Term) ([]Term, bool) {
	var elems []Term
	for {
		if Equal(t, EmptyList) {
			return elems, true
		}
		c, ok := t.(*Compound)
		if !ok || c.Functor != ConsFunctor || len(c.Args) != 2 {
			return nil, false
		}
		elems = append(elems, c.Args[0])
		t = c.Args[1]
	}
}

// appendList renders the cons cell c in [a, b | T] notation.
func appendList(dst []byte, c *Compound) []byte {
	dst = AppendText(append(dst, '['), c.Args[0])
	for t := c.Args[1]; ; {
		if Equal(t, EmptyList) {
			return append(dst, ']')
		}
		cc, ok := t.(*Compound)
		if !ok || cc.Functor != ConsFunctor || len(cc.Args) != 2 {
			return append(AppendText(append(dst, " | "...), t), ']')
		}
		dst = AppendText(append(dst, ", "...), cc.Args[0])
		t = cc.Args[1]
	}
}
