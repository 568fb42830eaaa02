// Package layering implements §3.1 of the paper: the dependency relations
// > and ≥ on predicate symbols, the admissibility test, and the
// construction of a layering (stratification).
//
//	p ≥ q : a rule with head p (no grouping in the head) has q positive in
//	        its body;
//	p > q : a rule with head p has a grouping occurrence in the head and q
//	        anywhere in its body, or q appears negated in its body.
//
// A program is admissible iff no cyclic dependency passes through a >
// edge (Lemma 3.1: equivalently, iff a layering exists).
package layering

import (
	"fmt"
	"sort"
	"strings"

	"ldl1/internal/ast"
)

// IsBuiltin reports whether pred is a reserved built-in predicate: one
// evaluated directly by the engine, imposing no layering constraint.
func IsBuiltin(pred string) bool { return ast.IsBuiltinPred(pred) }

// DepEdge is one dependency edge: head predicate From
// depends on body predicate To, strictly (>) when the inducing rule groups
// in its head or negates the body literal.  RuleIndex identifies the
// inducing rule in the program's Rules slice, so diagnostics can point at
// its source position.
type DepEdge struct {
	From, To  string
	Strict    bool
	RuleIndex int
}

// Edges returns every dependency edge of the program, in rule order then
// body-literal order.  Built-in predicates induce no edges.
func Edges(p *ast.Program) []DepEdge {
	var out []DepEdge
	for i, r := range p.Rules {
		grouping := r.IsGroupingRule()
		for _, l := range r.Body {
			if IsBuiltin(l.Pred) {
				continue
			}
			out = append(out, DepEdge{
				From:      r.Head.Pred,
				To:        l.Pred,
				Strict:    grouping || l.Negated,
				RuleIndex: i,
			})
		}
	}
	return out
}

// SCCs returns the strongly connected components of the program's
// dependency graph, each sorted, in Tarjan emission order (dependencies
// first).  Singleton components are included; a predicate is recursive iff
// its component has size > 1 or it has a self edge.
func SCCs(p *ast.Program) [][]string {
	return tarjan(buildGraph(p))
}

// Layering is the result of stratifying an admissible program.
type Layering struct {
	// Stratum maps each predicate to its layer index, 0-based.  Predicates
	// no rule derives (EDB predicates) are in stratum 0.
	Stratum map[string]int
	// NumStrata is 1 + the maximum stratum index.
	NumStrata int
	// Rules[i] holds the program rules whose head predicate lies in
	// stratum i, in original program order.
	Rules [][]ast.Rule

	rules  []ast.Rule     // the program's, for Coarse
	coarse map[string]int // the strata of Coarse
}

// NotAdmissibleError reports a dependency cycle through a strict edge
// (grouping or negation), with the offending predicate cycle.  The cycle
// is canonical — rotated to its lexicographically smallest form, with the
// first predicate repeated at the end — so the same program yields the
// same witness on every run.
type NotAdmissibleError struct {
	Cycle []string
}

// canonicalCycle normalizes a cycle [p1, ..., pk, p1]: it drops the
// closing repetition, rotates the sequence to the lexicographically
// smallest of its k rotations, and re-closes it.  Map-order or traversal
// artifacts in cycle discovery then cannot leak into error text.
func canonicalCycle(cyc []string) []string {
	if len(cyc) > 1 && cyc[0] == cyc[len(cyc)-1] {
		cyc = cyc[:len(cyc)-1]
	}
	if len(cyc) == 0 {
		return cyc
	}
	best := 0
	for cand := 1; cand < len(cyc); cand++ {
		for off := 0; off < len(cyc); off++ {
			a := cyc[(cand+off)%len(cyc)]
			b := cyc[(best+off)%len(cyc)]
			if a != b {
				if a < b {
					best = cand
				}
				break
			}
		}
	}
	out := make([]string, 0, len(cyc)+1)
	for off := 0; off < len(cyc); off++ {
		out = append(out, cyc[(best+off)%len(cyc)])
	}
	return append(out, out[0])
}

func (e *NotAdmissibleError) Error() string {
	return fmt.Sprintf("program is not admissible (§3.1): dependency cycle through grouping or negation: %s",
		strings.Join(e.Cycle, " -> "))
}

// Stratify checks admissibility and returns the finest layering of the
// program: one layer per strongly connected component of the dependency
// graph that rules define, in dependency order, above layer 0, which holds
// the predicates no rule derives (EDB predicates, and those only facts
// define) and no rule but those facts.  A non-recursive rule then fires
// once, on final inputs.  Theorem 2 makes the model the same under every
// layering.  Built-in predicates are ignored.
//
// A program is admissible iff no strict (>) edge lies inside a component.
// The components come from one Tarjan pass, in dependency order, which the
// minimum-index layering of Coarse is derived from in the same pass.
func Stratify(p *ast.Program) (*Layering, error) {
	graph := buildGraph(p)
	derived := map[string]bool{}
	for _, r := range p.Rules {
		if !r.IsFact() {
			derived[r.Head.Pred] = true
		}
	}
	// An underived predicate has no edges out, so it is a component of its
	// own; a derived component gets the next layer.  Every edge out of a
	// component leads to one emitted before it, so a target in the current
	// layer lies in the same component.
	fine := make(map[string]int, len(graph))
	coarse := make(map[string]int, len(graph))
	n := 0
	for _, scc := range tarjan(graph) {
		if !derived[scc[0]] {
			fine[scc[0]], coarse[scc[0]] = 0, 0
			continue
		}
		n++
		for _, pred := range scc {
			fine[pred] = n
		}
		// coarse: the most strict edges on a path down from the component.
		c := 0
		for _, pred := range scc {
			for _, e := range graph[pred] {
				switch {
				case fine[e.To] == n && e.Strict:
					return nil, &NotAdmissibleError{Cycle: canonicalCycle(findCycle(graph, pred))}
				case fine[e.To] == n:
				case e.Strict:
					c = max(c, coarse[e.To]+1)
				default:
					c = max(c, coarse[e.To])
				}
			}
		}
		for _, pred := range scc {
			coarse[pred] = c
		}
	}
	return layer(p.Rules, fine, coarse), nil
}

// Coarse returns the minimum-index layering of the program: every predicate
// in the lowest layer the constraints allow, stratum(p) ≥ stratum(q) for
// p ≥ q and stratum(p) > stratum(q) for p > q — the longest path down from
// p counted in strict edges.  It groups more components per layer than l.
func (l *Layering) Coarse() *Layering { return layer(l.rules, l.coarse, l.coarse) }

// layer partitions rules by the stratum of their head predicates.
func layer(rules []ast.Rule, stratum, coarse map[string]int) *Layering {
	n := 0
	for _, s := range stratum {
		n = max(n, s)
	}
	l := &Layering{Stratum: stratum, NumStrata: n + 1, Rules: make([][]ast.Rule, n+1), rules: rules, coarse: coarse}
	for _, r := range rules {
		s := stratum[r.Head.Pred]
		l.Rules[s] = append(l.Rules[s], r)
	}
	return l
}

// PredStratum returns the layer index of pred, defaulting to 0 for
// predicates the program never mentions (pure-EDB predicates created by
// updates land in the bottom layer, where every rule may read them).
func (l *Layering) PredStratum(pred string) int {
	if s, ok := l.Stratum[pred]; ok {
		return s
	}
	return 0
}

// buildGraph indexes the program's dependency edges by head predicate;
// every predicate the program mentions, built-ins aside, is a key.
func buildGraph(p *ast.Program) map[string][]DepEdge {
	graph := map[string][]DepEdge{}
	for _, r := range p.Rules {
		graph[r.Head.Pred] = nil
	}
	for _, e := range Edges(p) {
		graph[e.From] = append(graph[e.From], e)
		if _, ok := graph[e.To]; !ok {
			graph[e.To] = nil
		}
	}
	return graph
}

// findCycle locates a cycle through a strict edge for error reporting,
// from start, the tail of a strict edge inside a component: every simple
// path from start is tried, so the cycle that edge closes is found if no
// other is first.
// Each path frame records the predicate and the strictness of the edge used
// to leave it; a back edge closes a cycle, which offends iff some leaving
// edge on it is strict.
func findCycle(graph map[string][]DepEdge, start string) []string {
	type frame struct {
		pred      string
		outStrict bool
	}
	var path []frame
	onPath := map[string]int{}
	var visit func(pred string) []string
	visit = func(pred string) []string {
		if i, ok := onPath[pred]; ok {
			strict := false
			for _, f := range path[i:] {
				strict = strict || f.outStrict
			}
			if !strict {
				return nil
			}
			cyc := make([]string, 0, len(path)-i+1)
			for _, f := range path[i:] {
				cyc = append(cyc, f.pred)
			}
			return append(cyc, pred)
		}
		onPath[pred] = len(path)
		path = append(path, frame{pred: pred})
		defer func() {
			delete(onPath, pred)
			path = path[:len(path)-1]
		}()
		edges := append([]DepEdge(nil), graph[pred]...)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Strict != edges[j].Strict {
				return edges[i].Strict
			}
			return edges[i].To < edges[j].To
		})
		for _, e := range edges {
			path[len(path)-1].outStrict = e.Strict
			if cyc := visit(e.To); cyc != nil {
				return cyc
			}
		}
		return nil
	}
	return visit(start)
}
