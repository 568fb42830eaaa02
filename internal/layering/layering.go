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

// edge is a dependency from head predicate to body predicate.
type edge struct {
	to     string
	strict bool // true for >, false for ≥
	rule   int  // index into the program's Rules of the inducing rule
}

// DepEdge is the exported view of one dependency edge: head predicate From
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
	// Stratum maps each predicate to its layer index, 0-based.  EDB
	// predicates (those with no rules) are in stratum 0.
	Stratum map[string]int
	// NumStrata is 1 + the maximum stratum index.
	NumStrata int
	// Rules[i] holds the program rules whose head predicate lies in
	// stratum i, in original program order.
	Rules [][]ast.Rule
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

// Stratify checks admissibility and returns a layering for the program.
// Built-in predicates are ignored.
func Stratify(p *ast.Program) (*Layering, error) {
	graph := buildGraph(p)

	// Predicate universe in deterministic order.
	preds := make([]string, 0, len(graph))
	for pred := range graph {
		preds = append(preds, pred)
	}
	sort.Strings(preds)

	// Compute strata by iterating to a fixed point:
	//   stratum(p) ≥ stratum(q)      for p ≥ q
	//   stratum(p) ≥ stratum(q) + 1  for p > q
	// A program with n predicates needs at most n strata; if a value
	// exceeds n the constraints are unsatisfiable (cycle through >).
	stratum := make(map[string]int, len(preds))
	for _, pred := range preds {
		stratum[pred] = 0
	}
	n := len(preds)
	for changed := true; changed; {
		changed = false
		for _, pred := range preds {
			for _, e := range graph[pred] {
				want := stratum[e.to]
				if e.strict {
					want++
				}
				if stratum[pred] < want {
					if want > n {
						return nil, &NotAdmissibleError{Cycle: canonicalCycle(findCycle(graph, pred))}
					}
					stratum[pred] = want
					changed = true
				}
			}
		}
	}

	max := 0
	for _, s := range stratum {
		if s > max {
			max = s
		}
	}
	l := &Layering{Stratum: stratum, NumStrata: max + 1}
	l.Rules = make([][]ast.Rule, l.NumStrata)
	for _, r := range p.Rules {
		s := stratum[r.Head.Pred]
		l.Rules[s] = append(l.Rules[s], r)
	}
	return l, nil
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

// Admissible reports whether the program has a layering (Lemma 3.1).
func Admissible(p *ast.Program) bool {
	_, err := Stratify(p)
	return err == nil
}

func buildGraph(p *ast.Program) map[string][]edge {
	graph := map[string][]edge{}
	touch := func(pred string) {
		if _, ok := graph[pred]; !ok {
			graph[pred] = nil
		}
	}
	for i, r := range p.Rules {
		head := r.Head.Pred
		touch(head)
		grouping := r.IsGroupingRule()
		for _, l := range r.Body {
			if IsBuiltin(l.Pred) {
				continue
			}
			touch(l.Pred)
			strict := grouping || l.Negated
			graph[head] = append(graph[head], edge{to: l.Pred, strict: strict, rule: i})
		}
	}
	return graph
}

// findCycle locates a cycle through a strict edge for error reporting.
// Each path frame records the predicate and the strictness of the edge used
// to leave it; a back edge closes a cycle, which offends iff some leaving
// edge on it is strict.
func findCycle(graph map[string][]edge, start string) []string {
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
		edges := append([]edge(nil), graph[pred]...)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].strict != edges[j].strict {
				return edges[i].strict
			}
			return edges[i].to < edges[j].to
		})
		for _, e := range edges {
			path[len(path)-1].outStrict = e.strict
			if cyc := visit(e.to); cyc != nil {
				return cyc
			}
		}
		return nil
	}
	if cyc := visit(start); cyc != nil {
		return cyc
	}
	preds := make([]string, 0, len(graph))
	for p := range graph {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		if cyc := visit(p); cyc != nil {
			return cyc
		}
	}
	return []string{start}
}
