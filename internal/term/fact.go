package term

// Fact is a U-fact p(e1,...,en): a predicate symbol applied to elements of
// the universe U (§2.2).  Args must be ground.
type Fact struct {
	Pred string
	Args []Term

	hash uint64
}

// NewFact builds a U-fact, computing the structural hash eagerly so the
// fact can be shared across goroutines without lazy writes.
func NewFact(pred string, args ...Term) *Fact {
	f := &Fact{Pred: pred, Args: args}
	f.Hash()
	return f
}

// NewFactOf is NewFact over a copy of args whose hash h, HashFactArgs(pred,
// args), the caller has already computed: the shape of a fact a rule
// derives from a scratch head after probing for it.  For up to three
// arguments the fact and its argument array are one allocation.
func NewFactOf(pred string, args []Term, h uint64) *Fact {
	var f *Fact
	switch len(args) {
	case 1:
		p := new(factWith[[1]Term])
		p.Args, f = p.a[:], &p.Fact
	case 2:
		p := new(factWith[[2]Term])
		p.Args, f = p.a[:], &p.Fact
	case 3:
		p := new(factWith[[3]Term])
		p.Args, f = p.a[:], &p.Fact
	default:
		f = &Fact{Args: make([]Term, len(args))}
	}
	f.Pred = pred
	copy(f.Args, args)
	f.hash = h
	return f
}

// factWith is a fact allocated together with its argument array A.
type factWith[A any] struct {
	Fact
	a A
}

// String returns the fact's LDL1 text, AppendCall of its predicate and
// arguments.  Two facts print alike iff they are the same U-fact.
func (f *Fact) String() string { return string(AppendCall(nil, f.Pred, f.Args)) }

// Equal reports whether f and g are the same U-fact.
func (f *Fact) Equal(g *Fact) bool { return EqualFacts(f, g) }

// EqualFacts reports whether f and g are the same U-fact: same predicate
// symbol and pairwise-equal arguments.  Allocation-free; memoized hashes
// are compared first, so distinct facts almost always part in O(1).
func EqualFacts(f, g *Fact) bool {
	if f == g {
		return true
	}
	if f.hash != 0 && g.hash != 0 && f.hash != g.hash {
		return false
	}
	if f.Pred != g.Pred || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if !Equal(f.Args[i], g.Args[i]) {
			return false
		}
	}
	return true
}

// Dominated reports the paper's basic fact dominance e ≤ e' (§2.4): both
// facts use the same predicate and arity, and argument-wise, set arguments
// of e are subsets of the corresponding arguments of e' while non-set
// arguments are equal.
func Dominated(e, ep *Fact) bool {
	if e.Pred != ep.Pred || len(e.Args) != len(ep.Args) {
		return false
	}
	for i := range e.Args {
		s, sok := e.Args[i].(*Set)
		t, tok := ep.Args[i].(*Set)
		if sok && tok {
			if !s.SubsetOf(t) {
				return false
			}
			continue
		}
		if !Equal(e.Args[i], ep.Args[i]) {
			return false
		}
	}
	return true
}

// ElemDominated implements the more elaborate element dominance of the
// §2.4 remark: e ≤ e' if (i) e = e', or (ii) both are applications of the
// same functor with pointwise-dominated arguments, or (iii) both are sets
// and every element of e is dominated by some element of e'.
func ElemDominated(e, ep Term) bool {
	if Equal(e, ep) {
		return true
	}
	if c, ok := e.(*Compound); ok {
		if cp, ok := ep.(*Compound); ok && c.Functor == cp.Functor && len(c.Args) == len(cp.Args) {
			for i := range c.Args {
				if !ElemDominated(c.Args[i], cp.Args[i]) {
					return false
				}
			}
			return true
		}
		return false
	}
	if s, ok := e.(*Set); ok {
		sp, ok := ep.(*Set)
		if !ok {
			return false
		}
		for _, a := range s.elems {
			found := false
			for _, b := range sp.elems {
				if ElemDominated(a, b) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	return false
}

// FactElemDominated lifts ElemDominated to facts: p(s1..sn) ≤ p(s1'..sn')
// iff argument-wise si ≤ si' under the elaborate element dominance.
func FactElemDominated(e, ep *Fact) bool {
	if e.Pred != ep.Pred || len(e.Args) != len(ep.Args) {
		return false
	}
	for i := range e.Args {
		if !ElemDominated(e.Args[i], ep.Args[i]) {
			return false
		}
	}
	return true
}
