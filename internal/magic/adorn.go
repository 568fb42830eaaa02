// Package magic implements §6 of the paper: adornments, default sideways
// information passing (sips), the Generalized Magic Sets rewriting extended
// to set grouping and negation, and an evaluator for the rewritten (no
// longer layered) program that honors the §6 constraint of fully evaluating
// grouped and negated bodies for every magic binding.
package magic

import (
	"fmt"
	"sort"
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/term"
)

// Adornment is a string over {b, f}, one letter per argument (§6).
type Adornment string

// Bound reports whether argument i is bound.
func (a Adornment) Bound(i int) bool { return i < len(a) && a[i] == 'b' }

// AdornedRule is a program rule specialized for one head adornment, with
// its sip: the body execution order and the adornment of each IDB body
// literal.
type AdornedRule struct {
	Rule   ast.Rule
	Head   Adornment
	Order  []int             // sip: body literal indices in information-passing order
	Adorns map[int]Adornment // body literal index → adornment (IDB literals only)
}

// AdornedProgram is the result of the second step of §6: the program
// specialized to the query's binding pattern.
type AdornedProgram struct {
	Original *ast.Program
	Rules    []AdornedRule
	// IDB holds the intensional predicates (those defined by non-fact
	// rules); all other predicates are base relations.
	IDB map[string]bool
	// Stored lists the intensional predicates whose facts the database an
	// execution reads holds besides the ones the rules derive (loaded or
	// asserted): every adornment of one reads them through a magic-guarded
	// rule.
	Stored []string
	// Query is the adorned query predicate and its adornment.
	QueryPred  string
	QueryAdorn Adornment
	QueryLit   ast.Literal
}

// AdornQuery computes the adornment of a query literal: an argument is
// bound iff it is ground.
func AdornQuery(q ast.Literal) Adornment {
	b := make([]byte, len(q.Args))
	for i, a := range q.Args {
		if term.IsGround(a) {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return Adornment(b)
}

// Adorn produces the adorned rule set for program p and the query (step two
// of the §6 approach).  The sip for each rule is the default left-to-right
// strategy induced by the evaluator's join planner, seeded with the bound
// head variables; per §6 a bound head argument of the form <X> passes no
// bindings (footnote 6).
func Adorn(p *ast.Program, query parser.Query) (*AdornedProgram, error) {
	if len(query.Body) != 1 {
		return nil, fmt.Errorf("magic: adornment requires a single-literal query, got %d literals", len(query.Body))
	}
	qlit := query.Body[0]
	if layering.IsBuiltin(qlit.Pred) || qlit.Negated {
		return nil, fmt.Errorf("magic: query must be a positive database literal")
	}

	idb := map[string]bool{}
	rulesByPred := map[string][]ast.Rule{}
	for _, r := range p.Rules {
		rulesByPred[r.Head.Pred] = append(rulesByPred[r.Head.Pred], r)
		if !r.IsFact() {
			idb[r.Head.Pred] = true
		}
	}

	ap := &AdornedProgram{
		Original:   p,
		IDB:        idb,
		QueryPred:  qlit.Pred,
		QueryAdorn: AdornQuery(qlit),
		QueryLit:   qlit,
	}
	if !idb[qlit.Pred] {
		return nil, fmt.Errorf("magic: query predicate %s is a base relation; nothing to rewrite", qlit.Pred)
	}

	done := map[adornJob]bool{}
	queue := []adornJob{{qlit.Pred, ap.QueryAdorn}}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		if done[j] {
			continue
		}
		done[j] = true
		for _, r := range rulesByPred[j.pred] {
			ar, next, err := adornRule(r, j.adorn, idb)
			if err != nil {
				return nil, err
			}
			ap.Rules = append(ap.Rules, ar)
			queue = append(queue, next...)
		}
	}
	// Deterministic order: by predicate, adornment, then original text.
	sort.SliceStable(ap.Rules, func(i, k int) bool {
		a, b := ap.Rules[i], ap.Rules[k]
		if a.Rule.Head.Pred != b.Rule.Head.Pred {
			return a.Rule.Head.Pred < b.Rule.Head.Pred
		}
		if a.Head != b.Head {
			return a.Head < b.Head
		}
		return false
	})
	return ap, nil
}

type adornJob struct {
	pred  string
	adorn Adornment
}

// adornRule specializes one rule for a head adornment, computing the sip
// order and the adornment of each IDB body literal.
func adornRule(r ast.Rule, head Adornment, idb map[string]bool) (AdornedRule, []adornJob, error) {
	bound := map[term.Var]bool{}
	for i, a := range r.Head.Args {
		if !head.Bound(i) {
			continue
		}
		if !passes(a) {
			continue
		}
		for _, v := range term.VarsOf(a) {
			bound[v] = true
		}
	}
	// The compiled plan's binding analysis is exactly the sip: a body
	// argument is bound iff its column is in the plan's bound-column set
	// when the literal executes.
	plan, err := eval.CompileBody(r, -1, bound, nil)
	if err != nil {
		return AdornedRule{}, nil, err
	}
	ar := AdornedRule{Rule: r, Head: head, Order: plan.Order, Adorns: map[int]Adornment{}}
	var next []adornJob
	for _, idx := range plan.Order {
		l := r.Body[idx]
		if !idb[l.Pred] || layering.IsBuiltin(l.Pred) {
			continue
		}
		b := make([]byte, len(l.Args))
		for i := range b {
			b[i] = 'f'
		}
		for _, col := range plan.BoundCols[idx] {
			b[col] = 'b'
		}
		ad := Adornment(b)
		ar.Adorns[idx] = ad
		next = append(next, adornJob{l.Pred, ad})
	}
	return ar, next, nil
}

// String renders the adorned program in the paper's notation, e.g.
// "a^bf(X, Y) <- a^bf(X, Z), a^bf(Z, Y).".
func (ap *AdornedProgram) String() string {
	var sb strings.Builder
	for _, ar := range ap.Rules {
		sb.WriteString(ar.String())
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "?- %s^%s%s.\n", ap.QueryPred, ap.QueryAdorn, argsString(ap.QueryLit.Args))
	return sb.String()
}

func (ar AdornedRule) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s^%s%s <- ", ar.Rule.Head.Pred, ar.Head, argsString(ar.Rule.Head.Args))
	for i, l := range ar.Rule.Body {
		if i > 0 {
			sb.WriteString(", ")
		}
		if ad, ok := ar.Adorns[i]; ok {
			if l.Negated {
				sb.WriteString("not ")
			}
			fmt.Fprintf(&sb, "%s^%s%s", l.Pred, ad, argsString(l.Args))
		} else {
			sb.WriteString(l.String())
		}
	}
	sb.WriteByte('.')
	return sb.String()
}

func argsString(args []term.Term) string {
	if len(args) == 0 {
		return ""
	}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
