// Package ast defines the abstract syntax of LDL1 programs: literals,
// rules, and programs, together with the well-formedness conditions of §2.1
// and the safety restriction sketched in §7 of the paper.
package ast

import (
	"fmt"
	"strings"

	"ldl1/internal/term"
)

// Literal is a possibly-negated predicate p(t1,...,tn) (§2.1).
type Literal struct {
	Negated bool
	Pred    string
	Args    []term.Term
	// Pos is the source position of the literal's first token (the "not"
	// of a negated literal, the left operand of an infix comparison).  It
	// is metadata only: String, comparison helpers, and evaluation ignore
	// it, and literals synthesized in Go code leave it zero.
	Pos Pos
}

// NewLit builds a positive literal.
func NewLit(pred string, args ...term.Term) Literal {
	return Literal{Pred: pred, Args: args}
}

// NewNegLit builds a negative literal.
func NewNegLit(pred string, args ...term.Term) Literal {
	return Literal{Negated: true, Pred: pred, Args: args}
}

// Arity returns the number of arguments.
func (l Literal) Arity() int { return len(l.Args) }

// Positive returns the literal with negation stripped.
func (l Literal) Positive() Literal {
	l.Negated = false
	return l
}

// HasGroup reports whether any argument contains a grouping construct <X>.
func (l Literal) HasGroup() bool {
	for _, a := range l.Args {
		if term.ContainsGroup(a) {
			return true
		}
	}
	return false
}

// GroupArg returns the index of the direct grouping argument and its inner
// term, or -1 if the literal has no direct <X> argument.
func (l Literal) GroupArg() (int, term.Term) {
	for i, a := range l.Args {
		if g, ok := a.(*term.Group); ok {
			return i, g.Inner
		}
	}
	return -1, nil
}

// Vars returns the variables of the literal in first-occurrence order.
func (l Literal) Vars() []term.Var {
	seen := map[term.Var]bool{}
	var out []term.Var
	for _, a := range l.Args {
		out = term.Vars(a, seen, out)
	}
	return out
}

// infixPreds are rendered between their two arguments, matching the
// concrete syntax the parser accepts.
var infixPreds = map[string]bool{
	"=": true, "/=": true, "<": true, "<=": true, ">": true, ">=": true,
}

func (l Literal) String() string {
	var b []byte
	if l.Negated {
		b = append(b, "not "...)
	}
	if infixPreds[l.Pred] && len(l.Args) == 2 {
		b = append(term.AppendText(b, l.Args[0]), ' ')
		b = append(append(b, l.Pred...), ' ')
		return string(term.AppendText(b, l.Args[1]))
	}
	return string(term.AppendCall(b, l.Pred, l.Args))
}

// Rule is head <- body (§2.1).  A rule with an empty body is a fact.
type Rule struct {
	Head Literal
	Body []Literal
	// Pos is the position of the rule's first token (== Head.Pos for
	// parsed rules); zero when the rule was built in Go code.
	Pos Pos
	// VarPos records the first occurrence of each variable of the rule,
	// for variable-level diagnostics.  The map is set once by the parser
	// and treated as immutable afterwards (Clone shares it).
	VarPos map[term.Var]Pos
}

// IsFact reports whether the rule has an empty body.
func (r Rule) IsFact() bool { return len(r.Body) == 0 }

// IsGroupingRule reports whether the head contains a grouping construct.
func (r Rule) IsGroupingRule() bool { return r.Head.HasGroup() }

// Vars returns all variables of the rule in first-occurrence order
// (head first, then body).
func (r Rule) Vars() []term.Var {
	seen := map[term.Var]bool{}
	var out []term.Var
	for _, a := range r.Head.Args {
		out = term.Vars(a, seen, out)
	}
	for _, l := range r.Body {
		for _, a := range l.Args {
			out = term.Vars(a, seen, out)
		}
	}
	return out
}

func (r Rule) String() string {
	if r.IsFact() {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " <- " + strings.Join(parts, ", ") + "."
}

// Program is a finite set of rules (§2.1).
type Program struct {
	Rules []Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...Rule) *Program { return &Program{Rules: rules} }

// Add appends rules to the program.
func (p *Program) Add(rules ...Rule) { p.Rules = append(p.Rules, rules...) }

// IsPositive reports whether no rule body contains a negative literal
// (§2.1).
func (p *Program) IsPositive() bool {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Negated {
				return false
			}
		}
	}
	return true
}

// Preds returns the set of predicate names appearing anywhere in the
// program.
func (p *Program) Preds() map[string]bool {
	out := map[string]bool{}
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
		for _, l := range r.Body {
			out[l.Pred] = true
		}
	}
	return out
}

// HeadPreds returns the set of predicates defined by rule heads (the IDB).
func (p *Program) HeadPreds() map[string]bool {
	out := map[string]bool{}
	for _, r := range p.Rules {
		out[r.Head.Pred] = true
	}
	return out
}

func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Clone returns a deep-enough copy of the program: rule slices and literal
// argument slices are fresh, term structure is shared (terms are immutable).
func (p *Program) Clone() *Program {
	rules := make([]Rule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = cloneRule(r)
	}
	return &Program{Rules: rules}
}

func cloneRule(r Rule) Rule {
	// Pos and the immutable VarPos map are carried over as-is.
	nr := Rule{Head: cloneLit(r.Head), Pos: r.Pos, VarPos: r.VarPos}
	nr.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		nr.Body[i] = cloneLit(l)
	}
	return nr
}

func cloneLit(l Literal) Literal {
	args := make([]term.Term, len(l.Args))
	copy(args, l.Args)
	return Literal{Negated: l.Negated, Pred: l.Pred, Args: args, Pos: l.Pos}
}

// WellFormedError describes a violation of the §2.1 well-formedness or §7
// safety conditions.
type WellFormedError struct {
	Rule Rule
	Msg  string
}

func (e *WellFormedError) Error() string {
	return fmt.Sprintf("rule %q: %s", e.Rule.String(), e.Msg)
}

// CheckWellFormed verifies the §2.1 conditions for every rule of a core
// LDL1 program:
//
//  1. the body contains no grouping construct,
//  2. the head contains at most one grouping occurrence, which must be a
//     direct argument of the head predicate and of the form <X>,
//
// plus the §7 safety restriction: every head variable, and every variable of
// a negative body literal, must appear in some positive body literal.
// LDL1.5 programs must be rewritten (package rewrite) before this check.
//
// The paper's §2.1 additionally demands that grouping-rule bodies be
// negation-free, but its own §6 running example violates that (rule 5:
// young(X,<Y>) <- ¬a(X,Z), sg(X,Y)); the restriction is subsumed by
// admissibility, which forces negated body predicates into strictly lower
// layers — exactly what Lemma 3.2.3's one-shot grouping evaluation needs —
// so it is not enforced here.
func CheckWellFormed(p *Program) error {
	for _, r := range p.Rules {
		if err := CheckRuleWellFormed(r); err != nil {
			return err
		}
	}
	return nil
}

// CheckRuleWellFormed checks a single rule; see CheckWellFormed.
func CheckRuleWellFormed(r Rule) error {
	if err := CheckRuleShape(r); err != nil {
		return err
	}
	return CheckRuleSafe(r)
}

// CheckRuleShape verifies the purely syntactic §2.1 conditions on grouping
// placement (conditions 1-2 of CheckWellFormed), without the safety check.
func CheckRuleShape(r Rule) error {
	fail := func(msg string) error { return &WellFormedError{Rule: r, Msg: msg} }
	for _, l := range r.Body {
		if l.HasGroup() {
			return fail("grouping construct <...> is not allowed in a rule body (§2.1); use the LDL1.5 rewrite for body patterns")
		}
	}
	groups := 0
	for _, a := range r.Head.Args {
		switch a := a.(type) {
		case *term.Group:
			groups++
			if _, ok := a.Inner.(term.Var); !ok {
				return fail("core LDL1 grouping must be over a variable, got <" + a.Inner.String() + ">; use the LDL1.5 rewrite for complex head terms")
			}
		default:
			if term.ContainsGroup(a) {
				return fail("grouping must be a direct argument of the head predicate (§2.1)")
			}
		}
	}
	if groups > 1 {
		return fail("at most one grouping occurrence is allowed in a rule head (§2.1)")
	}
	return nil
}

// CheckRuleSafe verifies the §2.2/§7 safety restriction using the
// limited-variable analysis of this package (see safety.go): every head
// variable — grouped or not — and every variable of a negated body literal
// must be limited, and facts must be ground.
func CheckRuleSafe(r Rule) error {
	fail := func(msg string) error { return &WellFormedError{Rule: r, Msg: msg} }
	for _, uv := range UnsafeVars(r) {
		switch uv.Kind {
		case UnsafeFact:
			return fail("facts may not contain variables (§7)")
		case UnsafeGrouped:
			return fail("unsafe rule: grouped variable " + string(uv.Var) + " is not limited by the rule body (§2.2, §7)")
		case UnsafeNegated:
			return fail("unsafe rule: variable " + string(uv.Var) + " of negated literal " + uv.Lit.String() + " is not limited by the positive body (§2.2, §7)")
		default:
			return fail("unsafe rule: head variable " + string(uv.Var) + " is not limited by the rule body (§2.2, §7)")
		}
	}
	return nil
}
