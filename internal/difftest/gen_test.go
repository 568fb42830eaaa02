package difftest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"ldl1/internal/incr"
	"ldl1/internal/term"
)

// The generator writes random admissible programs by construction: a
// program is a tower of levels above the EDB predicates e0 and e1, and each
// level defines one predicate from the EDB and the levels below it, reading
// itself only positively.  Negation and grouping therefore always read a
// lower level.  Atoms are c0..c4, so a grouped set has at most five elements
// and every enumeration of a set builtin stays small; function symbols occur
// only in the heads of non-recursive rules, so every model is finite.

// A pred is a predicate of a generated program.  pat spells an occurrence of
// it over a key variable (%[1]s) and a value (%[2]s): two atoms for a
// relation, a key and a set of atoms for a set predicate.
type pred struct {
	name, pat string
}

func (p pred) lit(k, v string) string { return fmt.Sprintf(p.name+"("+p.pat+")", k, v) }

const (
	plain    = "%[1]s, %[2]s"
	compound = "f(%[1]s), %[2]s"
	repeated = "%[1]s, %[1]s, %[2]s"
)

type gen struct {
	r          *rand.Rand
	sb         strings.Builder
	rels, sets []pred
}

// pick returns the latest of ps half the time, so that levels stack, and a
// random one otherwise.
func (g *gen) pick(ps []pred) pred { return ps[len(ps)-1-g.r.Intn(2)*g.r.Intn(len(ps))] }

func (g *gen) rule(head string, body ...string) {
	fmt.Fprintf(&g.sb, "%s <- %s.\n", head, strings.Join(body, ", "))
}

// program returns the text of a random program: EDB facts, then three to
// seven levels.
func program(r *rand.Rand) string {
	g := &gen{r: r, rels: []pred{{"e0", plain}, {"e1", plain}}}
	for _, e := range g.rels {
		for n := 6 + r.Intn(5); n > 0; n-- {
			fmt.Fprintf(&g.sb, "%s.\n", e.lit(fmt.Sprint("c", r.Intn(5)), fmt.Sprint("c", r.Intn(5))))
		}
	}
	for i, n := 0, 3+r.Intn(5); i < n; i++ {
		levels := []func(string){g.join, g.function, g.group}
		if len(g.sets) > 0 {
			levels = append(levels, g.member, g.union, g.splits, g.partition, g.unions, g.scons, g.pattern)
		}
		levels[r.Intn(len(levels))](fmt.Sprint("p", i))
	}
	return g.sb.String()
}

// join defines a relation by one or two rules of one to three positive
// literals over X, Y and Z and maybe one negated literal strictly below (a
// relation, or a grouped set through a set pattern); half the time the
// second rule closes it transitively over a relation instead.
func (g *gen) join(name string) {
	self := pred{name, plain}
	vars := []string{"X", "Y", "Z"}
	for k, n := 0, 1+g.r.Intn(2); k < n; k++ {
		if k == 1 && g.r.Intn(2) == 0 {
			g.rule(self.lit("X", "Y"), self.lit("X", "Z"), g.pick(g.rels).lit("Z", "Y"))
			continue
		}
		var body, bound []string
		for j, m := 0, 1+g.r.Intn(3); j < m; j++ {
			p := g.pick(g.rels)
			a, b := vars[g.r.Intn(3)], vars[g.r.Intn(3)]
			body, bound = append(body, p.lit(a, b)), append(bound, a, b)
		}
		v := func() string { return bound[g.r.Intn(len(bound))] }
		if n := g.r.Intn(4); n == 0 {
			body = append(body, "not "+g.pick(g.rels).lit(v(), v()))
		} else if n == 1 && len(g.sets) > 0 {
			body = append(body, "not "+g.pick(g.sets).lit(v(), "{"+v()+"}"))
		}
		g.rule(self.lit(v(), v()), body...)
	}
	g.rels = append(g.rels, self)
}

// function wraps a relation's first column in the function symbol f.
func (g *gen) function(name string) {
	g.rule(fmt.Sprintf("%s(f(X), Y)", name), g.pick(g.rels).lit("X", "Y"))
	g.rels = append(g.rels, pred{name, compound})
}

// group groups a relation's second column by a key that is a variable, a
// constant, a compound or a repeated variable; half the time a second
// grouping rule with other keys defines the same predicate.
func (g *gen) group(name string) {
	keys := []struct{ head, second, pat string }{
		{"X", "X", plain}, {"c0", "c1", plain}, {"f(X)", "f(X)", compound}, {"X, X", "X, Z", repeated},
	}
	k := keys[g.r.Intn(len(keys))]
	g.rule(fmt.Sprintf("%s(%s, <Y>)", name, k.head), g.pick(g.rels).lit("X", "Y"))
	if g.r.Intn(2) == 0 {
		g.rule(fmt.Sprintf("%s(%s, <Y>)", name, k.second), g.pick(g.rels).lit("Y", "X"), "e1(Y, Z)")
	}
	g.sets = append(g.sets, pred{name, k.pat})
}

// member reads the elements of a grouped set.
func (g *gen) member(name string) {
	g.rule(name+"(K, Z)", g.pick(g.sets).lit("K", "S"), "member(Z, S)")
	g.rels = append(g.rels, pred{name, plain})
}

func (g *gen) union(name string) {
	g.rule(name+"(K, U)", g.pick(g.sets).lit("K", "S"), g.pick(g.sets).lit("J", "T"), "union(S, T, U)")
	g.sets = append(g.sets, pred{name, plain})
}

// splits enumerates the pairs of sets whose union is a grouped set, and
// keeps the first of each: union/3 with only its third argument bound.
func (g *gen) splits(name string) {
	g.rule(name+"(K, A)", g.pick(g.sets).lit("K", "U"), "union(A, B, U)")
	g.sets = append(g.sets, pred{name, plain})
}

// unions closes a grouped set under disjoint union, as part-cost's tc does:
// a recursive rule joins two of the predicate's own sets through
// partition(U, S, T).
func (g *gen) unions(name string) {
	self := pred{name, plain}
	g.rule(self.lit("K", "S"), g.pick(g.sets).lit("K", "S"))
	g.rule(self.lit("K", "U"), self.lit("K", "S"), self.lit("K", "T"), "partition(U, S, T)")
	g.sets = append(g.sets, self)
}

// partition calls partition in each of its three modes: splitting a set,
// joining two disjoint sets, and taking a complement.
func (g *gen) partition(name string) {
	s, t := g.pick(g.sets), g.pick(g.sets)
	switch g.r.Intn(3) {
	case 0:
		g.rule(name+"(K, A)", s.lit("K", "S"), "partition(S, A, B)")
	case 1:
		g.rule(name+"(K, U)", s.lit("K", "S"), t.lit("J", "T"), "partition(U, S, T)")
	default:
		g.rule(name+"(K, T)", s.lit("K", "U"), t.lit("J", "S"), "partition(U, S, T)")
	}
	g.sets = append(g.sets, pred{name, plain})
}

// scons adds an element of a relation to a grouped set, in the head.
func (g *gen) scons(name string) {
	g.rule(name+"(K, scons(Z, S))", g.pick(g.sets).lit("K", "S"), g.pick(g.rels).lit("K", "Z"))
	g.sets = append(g.sets, pred{name, plain})
}

// pattern keeps the pairs of a relation whose values, one or two of them,
// make up a grouped set of the same key: "=" between a bound set and a set
// pattern whose elements are bound.
func (g *gen) pattern(name string) {
	s, r := g.pick(g.sets), g.pick(g.rels)
	if g.r.Intn(2) == 0 {
		g.rule(name+"(K, Y)", s.lit("K", "S"), r.lit("K", "Y"), "S = {Y}")
	} else {
		g.rule(name+"(K, Y)", s.lit("K", "S"), r.lit("K", "Y"), g.pick(g.rels).lit("K", "Z"), "S = {Y, Z}")
	}
	g.rels = append(g.rels, pred{name, plain})
}

// pinned are fixed inputs in testdata: hand-written programs with several
// layerings that differ, the first the §6 running example.  Beside them,
// testdata/generated_*.ldl hold programs the generator wrote; the eval, incr
// and magic packages run their part of the oracle on both.
var pinned = []string{"theorem2_running.ldl", "theorem2_components.ldl", "theorem2_nested.ldl"}

// txs returns a stream of n transactions over the predicates of edb.  A new
// fact is one of edb with arguments taken from others of its predicate; four
// retractions in five take a fact live at that point, the fifth a new one.
func txs(r *rand.Rand, edb []*term.Fact, n int) []incr.Tx {
	fresh := func() *term.Fact {
		f := edb[r.Intn(len(edb))]
		args := slices.Clone(f.Args)
		for j := range args {
			if o := edb[r.Intn(len(edb))]; o.Pred == f.Pred {
				args[j] = o.Args[j]
			}
		}
		return term.NewFact(f.Pred, args...)
	}
	live := slices.Clone(edb)
	out := make([]incr.Tx, n)
	for i := range out {
		for k := 1 + r.Intn(3); k > 0; k-- {
			f := fresh()
			out[i].Insert, live = append(out[i].Insert, f), append(live, f)
		}
		for k := r.Intn(3); k > 0; k-- {
			f := fresh()
			if len(live) > 0 && r.Intn(5) > 0 {
				j := r.Intn(len(live))
				f = live[j]
				live = slices.Delete(live, j, j+1)
			}
			out[i].Retract = append(out[i].Retract, f)
		}
	}
	return out
}
