// Package difftest holds the differential oracle of every bottom-up and magic
// path.  By Theorem 1 an admissible program has one standard minimal model,
// and by Theorem 2 it is the same under every layering; so on every program
// the generator writes, naive and semi-naive evaluation under three
// layerings, the model checker, an engine's Run after each load, a clone
// Materialize took after a Run and maintained through a transaction stream,
// and both magic-sets variants must agree; TestHandlesFollowUpdates holds a
// plain and a WithMagic engine to it through the same streams.  The engines
// adopt the generated database (AddDB) and are written after; each trial
// ends by checking that the database still holds what it was generated
// with.  Each trial
// is a subtest
// named by its seed, so a failure replays with -run 'TestDifferential/seed=N$';
// the seeds up to 0 are the pinned inputs.
package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ldl1"
	"ldl1/internal/analyze"
	"ldl1/internal/analyze/types"
	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/magic"
	"ldl1/internal/model"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/unify"
)

// Every trial runs with frontiers checking that no sink accepts a fact twice
// in one round: the delta relations of evaluation and maintenance rely on it.
func TestMain(m *testing.M) {
	eval.DebugFrontier = true
	os.Exit(m.Run())
}

// floor lists what the default run must exercise: every feature of the
// generator, every magic case, and a saturation that needs a third pass.
var floor = []string{
	"member", "union", "union enumeration", "partition", "recursion through partition", "scons", "=",
	"function symbol", "recursion", "negation",
	"grouping below negation", "three strict layers", "two grouping rules", "variable key",
	"constant key", "compound key", "repeated key", "bound set argument", "more than two passes",
	"Basic/text", "Basic/edb", "Supplementary/text", "Supplementary/edb", "stored derived fact",
}

func TestDifferential(t *testing.T) {
	trials := map[bool]int{false: 400, true: 150}[testing.Short()]
	cov, ran := map[string]int{}, 0
	for seed := 1 - len(pinned); seed <= trials; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			ran++
			r := rand.New(rand.NewSource(int64(seed)))
			src := program(r)
			if seed <= 0 {
				b, err := os.ReadFile(filepath.Join("testdata", pinned[-seed]))
				if err != nil {
					t.Fatal(err)
				}
				src = string(b)
			}
			check(t, r, src, cov)
		})
	}
	t.Logf("coverage over %d programs: %v", ran, cov)
	if ran < len(pinned)+trials {
		return // a replay of some trials
	}
	for _, f := range floor {
		if cov[f] == 0 {
			t.Errorf("no trial exercised %s", f)
		}
	}
}

// check runs every path over the program src and fails t on the first
// disagreement; r drives the random layering, the transactions and the
// queries.
func check(t *testing.T, r *rand.Rand, src string, cov map[string]int) {
	full := parser.MustParseProgram(src)
	admitted, err := eval.Admit(full)
	if err != nil {
		cov["rejected"]++
		t.Fatalf("the generator wrote a program eval.Admit rejects: %v\n%s", err, src)
	}
	lay := admitted.Layering()
	rules, edb, facts, heads := split(t, full)
	orig := deepCopy(edb)
	random, strata := randomLayering(r, full)
	stream := txs(r, facts, 6)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\nprogram:\n%s\nrandom layering: %v\ntransactions (insert, retract):\n%v",
			t.Name(), fmt.Sprintf(format, args...), src, strata, stream)
	}
	for _, f := range features(full, lay) {
		cov[f]++
	}

	// Theorem 2: one model under both strategies and three layerings.
	var want *store.DB
	for i, groups := range [][][]ast.Rule{lay.Rules, lay.Coarse().Rules, random} {
		name := []string{"finest", "coarse", "random"}[i]
		prog, err := eval.Compile(groups)
		if err != nil {
			fail("%s layering: %v", name, err)
		}
		for _, s := range []eval.Strategy{eval.SemiNaive, eval.Naive} {
			db := store.NewDB()
			if err := prog.Run(db, eval.Options{Strategy: s}, nil); err != nil {
				fail("%s layering, strategy %d: %v", name, s, err)
			}
			if want == nil {
				want = db
			} else if !db.Equal(want) {
				fail("%s layering, strategy %d:\n%s\nfinest, semi-naive:\n%s", name, s, db, want)
			}
		}
	}
	// Theorem 1: it is a model.
	if v, err := model.Check(full, want); err != nil || v != nil {
		fail("model check: %v %v", v, err)
	}
	// The analyzer passes every admitted program, and each fact of its model
	// fits the signature inferred for its predicate.
	for _, d := range analyze.Program(full, nil, analyze.Options{}) {
		if d.Severity == analyze.Error {
			fail("the analyzer rejects an admitted program: %v", d)
		}
	}
	env := types.Infer(full, nil, types.Options{}).Env
	for _, f := range want.Facts() {
		if sig, ok := env.Sig(f.Pred, len(f.Args)); ok {
			for i, a := range f.Args {
				if !fits(a, sig[i]) {
					fail("model fact %s: argument %d is outside the inferred signature %s", f, i+1, sig)
				}
			}
		}
	}

	// The engine path: Run after each load of a transaction's insertions
	// equals evaluation from scratch of the EDB loaded so far.
	eng, err := ldl1.NewFromAST(rules, ldl1.WithoutRewrite())
	if err != nil {
		fail("engine: %v", err)
	}
	eng.AddDB(edb)
	run := func(what string, scratch *store.DB) {
		t.Helper()
		m, err := eng.Run()
		if err != nil {
			fail("engine run %s: %v", what, err)
		}
		if !m.DB().Equal(scratch) {
			fail("engine run %s:\n%s\nfrom scratch:\n%s", what, m, scratch)
		}
	}
	run("before any load", want)
	// The view is taken after that Run; the engine's loads do not reach it.
	view, err := eng.Materialize()
	if err != nil {
		fail("materialize: %v", err)
	}
	loaded := edb.Clone()
	for i, tx := range stream {
		if err := eng.AddFacts(text(tx.Insert)); err != nil {
			fail("engine load %d: %v", i, err)
		}
		loaded.LoadFacts(tx.Insert, store.LoadOpts{})
		scratch, err := eval.Eval(rules, loaded, eval.Options{})
		if err != nil {
			fail("evaluation after load %d: %v", i, err)
		}
		run(fmt.Sprint("after load ", i), scratch)
	}

	// The view, maintained through the stream, equals evaluation from scratch.
	cur := edb.Clone()
	for i, tx := range stream {
		if _, err := view.Update(text(tx.Insert), text(tx.Retract)); err != nil {
			fail("transaction %d: %v", i, err)
		}
		cur.LoadFacts(tx.Insert, store.LoadOpts{})
		cur.DeleteAll(tx.Retract)
		scratch, err := eval.Eval(rules, cur, eval.Options{})
		if err != nil {
			fail("evaluation after transaction %d: %v", i, err)
		}
		if got, err := view.Run(); err != nil || !got.DB().Equal(scratch) {
			fail("view after transaction %d: %v\n%s\nfrom scratch:\n%s", i, err, got, scratch)
		}
	}

	// Both magic variants answer a selective query on each derived predicate
	// as the model does, with the facts in the text and preloaded.
	forms := []struct {
		p   *ast.Program
		edb *store.DB
	}{{full, store.NewDB()}, {rules, edb}}
	for _, h := range heads {
		q := query(r, h, want, cov)
		rows, err := eval.SolveLimitsCtx(context.Background(), q.Body, want, eval.SolveLimits{})
		if err != nil {
			fail("%s: %v", q, err)
		}
		for _, v := range []magic.Variant{magic.Basic, magic.Supplementary} {
			for i, in := range forms {
				name := []string{"Basic", "Supplementary"}[v] + []string{"/text", "/edb"}[i]
				pr, err := magic.PrepareVariant(in.p, q, v)
				res := &magic.Result{}
				if err == nil {
					res, err = pr.Exec(in.edb, nil, eval.Options{})
				}
				if err != nil {
					fail("%s magic, %s: %v", name, q, err)
				}
				if !slices.EqualFunc(res.Solutions, rows, func(a, b []term.Term) bool { return eval.CompareRows(a, b) == 0 }) {
					fail("%s magic, %s (%d passes): %v, the model %v", name, q, res.Passes, res.Solutions, rows)
				}
				cov[name]++
				if res.Passes > 2 {
					cov["more than two passes"]++
				}
			}
		}
	}

	// In half the trials the database also holds a fact of a derived
	// predicate, as after a load: both variants read it through a guarded
	// rule, and answer as the model of the rules over that database does.
	if f := storedFact(r, want, heads); f != nil && r.Intn(2) == 0 {
		cov["stored derived fact"]++
		plus := edb.Clone()
		plus.Insert(f)
		stored, err := eval.Eval(rules, plus, eval.Options{})
		if err != nil {
			fail("evaluation with %s stored: %v", f, err)
		}
		for _, h := range heads {
			q := query(r, h, stored, map[string]int{})
			rows, err := eval.SolveLimitsCtx(context.Background(), q.Body, stored, eval.SolveLimits{})
			if err != nil {
				fail("%s: %v", q, err)
			}
			for _, v := range []magic.Variant{magic.Basic, magic.Supplementary} {
				pr, err := magic.PrepareVariant(rules, q, v, f.Pred)
				res := &magic.Result{}
				if err == nil {
					res, err = pr.Exec(plus, nil, eval.Options{})
				}
				if err != nil {
					fail("variant %d magic, %s with %s stored: %v", v, q, f, err)
				}
				if !slices.EqualFunc(res.Solutions, rows, func(a, b []term.Term) bool { return eval.CompareRows(a, b) == 0 }) {
					fail("variant %d magic, %s with %s stored (%d passes): %v, the model %v", v, q, f, res.Passes, res.Solutions, rows)
				}
			}
		}
	}
	unchanged(t, edb, orig)
}

// storedFact returns a fact of a derived predicate that the model m lacks:
// a model fact of one of heads' predicates with one argument taken from
// another fact of the same predicate; nil when a few tries find none.
func storedFact(r *rand.Rand, m *store.DB, heads []ast.Literal) *term.Fact {
	for k := 0; k < 8 && len(heads) > 0; k++ {
		h := heads[r.Intn(len(heads))]
		rel := m.RelOrNil(h.Pred)
		if rel == nil || rel.Len() < 2 || len(h.Args) == 0 {
			continue
		}
		all := rel.All()
		f, g, i := all[r.Intn(len(all))], all[r.Intn(len(all))], r.Intn(len(h.Args))
		args := slices.Clone(f.Args)
		args[i] = g.Args[i]
		if nf := term.NewFact(h.Pred, args...); !m.Contains(nf) {
			return nf
		}
	}
	return nil
}

// deepCopy returns a database holding edb's facts in relations of its own.
func deepCopy(edb *store.DB) *store.DB {
	c := store.NewDB()
	c.LoadFacts(edb.Facts(), store.LoadOpts{})
	return c
}

// unchanged fails t unless edb, which engines have adopted and been written
// after, still holds what orig, its deep copy taken before, holds: no write
// of an engine reached the caller's side of its AddDB.
func unchanged(t *testing.T, edb, orig *store.DB) {
	t.Helper()
	if !edb.Equal(orig) {
		t.Fatalf("the engines' writes reached the database they adopted:\n%s\nloaded:\n%s", edb, orig)
	}
}

// TestHandlesFollowUpdates: a plain and a WithMagic engine each follow a
// generated stream of transactions, retractions included, through Update,
// once with the generated facts loaded and once with them in the program
// text.  After each transaction the handle's Run equals evaluation from
// scratch over the net EDB, and so does a selective query on each derived
// predicate, asked again after every transaction, so an answer cached before
// a write and not evicted by it shows.  The magic handles answer those
// queries through a magic form over their extensional database, which must
// follow the retractions, of the program's facts too, as the model does.
func TestHandlesFollowUpdates(t *testing.T) {
	trials := map[bool]int{false: 150, true: 75}[testing.Short()]
	for seed := 1; seed <= trials; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		src := program(r)
		full := parser.MustParseProgram(src)
		rules, edb, facts, heads := split(t, full)
		stream := txs(r, facts, 6)
		want, err := eval.Eval(rules, edb, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var queries []parser.Query
		for _, h := range heads {
			queries = append(queries, query(r, h, want, map[string]int{}))
		}
		orig := deepCopy(edb)
		handles := map[string]*ldl1.Engine{}
		for _, m := range []bool{false, true} {
			for _, p := range []*ast.Program{rules, full} {
				h, err := ldl1.NewFromAST(p, ldl1.WithoutRewrite(), ldl1.WithMagic(m))
				if err != nil {
					t.Fatal(err)
				}
				if p == rules {
					h.AddDB(edb)
				}
				handles[fmt.Sprintf("magic=%v, facts in text=%v", m, p == full)] = h
			}
		}
		cur := edb.Clone()
		for i, tx := range stream {
			cur.LoadFacts(tx.Insert, store.LoadOpts{})
			cur.DeleteAll(tx.Retract)
			scratch, err := eval.Eval(rules, cur, eval.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for name, h := range handles {
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d, %s handle, after transaction %d: %s\nprogram:\n%s\ntransactions (insert, retract):\n%v",
						seed, name, i, fmt.Sprintf(format, args...), src, stream)
				}
				if _, err := h.Update(text(tx.Insert), text(tx.Retract)); err != nil {
					fail("%v", err)
				}
				if m, err := h.Run(); err != nil || !m.DB().Equal(scratch) {
					fail("Run: %v\n%s\nfrom scratch:\n%s", err, m, scratch)
				}
				for _, q := range queries {
					rows, err := eval.SolveLimitsCtx(context.Background(), q.Body, scratch, eval.SolveLimits{})
					if err != nil {
						fail("%s: %v", q, err)
					}
					ans, err := h.Query(q.String())
					if err != nil || !slices.EqualFunc(ans.Rows(), rows, func(a, b []term.Term) bool { return eval.CompareRows(a, b) == 0 }) {
						fail("%s answers %v, %v; from scratch %v", q, ans, err, rows)
					}
				}
			}
		}
		unchanged(t, edb, orig)
	}
}

// split parses apart a program's rules and facts: the program of its rules,
// its facts as a database and as a list, and the head of the first rule of
// each derived predicate.
func split(t *testing.T, full *ast.Program) (rules *ast.Program, edb *store.DB, facts []*term.Fact, heads []ast.Literal) {
	rules, edb = ast.NewProgram(), store.NewDB()
	for _, rl := range full.Rules {
		if !rl.IsFact() {
			rules.Add(rl)
			if !slices.ContainsFunc(heads, func(h ast.Literal) bool { return h.Pred == rl.Head.Pred }) {
				heads = append(heads, rl.Head)
			}
		} else if f, err := unify.ApplyLit(rl.Head, unify.NewBindings()); err != nil {
			t.Fatal(err)
		} else {
			edb.Insert(f)
			facts = append(facts, f)
		}
	}
	return rules, edb, facts, heads
}

// fits reports that the ground term a has the type sig: one of its kinds,
// within its element type and its functor shape where it has them.
func fits(a term.Term, sig types.Type) bool {
	switch a := a.(type) {
	case term.Int:
		return sig.Kinds&types.Int != 0
	case term.Atom:
		return sig.Kinds&types.Atom != 0
	case term.Str:
		return sig.Kinds&types.Str != 0
	case *term.Set:
		if sig.Kinds&types.SetK == 0 {
			return false
		}
		return sig.Elem == nil || !slices.ContainsFunc(a.Elems(), func(e term.Term) bool { return !fits(e, *sig.Elem) })
	case *term.Compound:
		sh := sig.Shape
		if sig.Kinds&types.CompK == 0 || sh == nil {
			return sig.Kinds&types.CompK != 0
		}
		if sh.Functor != a.Functor || len(sh.Args) != len(a.Args) {
			return false
		}
		for i, s := range sh.Args {
			if !fits(a.Args[i], s) {
				return false
			}
		}
		return true
	}
	return false
}

// text writes facts as the fact list that parses back to them.
func text(fs []*term.Fact) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String() + ".\n")
	}
	return b.String()
}

// randomLayering places each strongly connected component in a random layer
// its edges allow: at or above the layer of each ≥ edge's target, strictly
// above that of each > edge's (§3.1), and at most one above the highest so
// far.  It returns the groups and the layer of each predicate.
func randomLayering(r *rand.Rand, p *ast.Program) ([][]ast.Rule, map[string]int) {
	edges, stratum, top := layering.Edges(p), map[string]int{}, 0
	for _, scc := range layering.SCCs(p) {
		s := 0
		for _, e := range edges {
			if slices.Contains(scc, e.From) && e.Strict {
				s = max(s, stratum[e.To]+1)
			} else if slices.Contains(scc, e.From) {
				s = max(s, stratum[e.To])
			}
		}
		s += r.Intn(top + 2 - s)
		top = max(top, s)
		for _, pred := range scc {
			stratum[pred] = s
		}
	}
	groups := make([][]ast.Rule, top+1)
	for _, rl := range p.Rules {
		s := stratum[rl.Head.Pred]
		groups[s] = append(groups[s], rl)
	}
	return groups, stratum
}

// query binds a random nonempty subset of the arguments of h to those of a
// random fact of m; with no fact in m, every argument is free.
func query(r *rand.Rand, h ast.Literal, m *store.DB, cov map[string]int) parser.Query {
	args, b := make([]term.Term, len(h.Args)), r.Intn(len(h.Args))
	var f *term.Fact
	if rel := m.RelOrNil(h.Pred); rel != nil && rel.Len() > 0 {
		f = rel.All()[r.Intn(rel.Len())]
	}
	for i := range args {
		args[i] = term.Var(fmt.Sprint("W", i))
		if f != nil && (i == b || r.Intn(2) == 0) {
			args[i] = f.Args[i]
			if _, ok := args[i].(*term.Set); ok {
				cov["bound set argument"]++
			}
		}
	}
	return parser.Query{Body: []ast.Literal{ast.NewLit(h.Pred, args...)}}
}

// readBy reports that a database literal of body reads the variable v.
func readBy(body []ast.Literal, v term.Term) bool {
	return slices.ContainsFunc(body, func(l ast.Literal) bool {
		return !layering.IsBuiltin(l.Pred) && slices.ContainsFunc(l.Args, func(a term.Term) bool { return term.Equal(a, v) })
	})
}

// features names what the program exercises of the floor's list.  A
// predicate is defined before it is read, so grouping is complete for every
// predicate a body reads.
func features(p *ast.Program, lay *layering.Layering) (fs []string) {
	grouping := map[string]int{}
	add := func(ok bool, f ...string) {
		if ok {
			fs = append(fs, f...)
		}
	}
	for _, rl := range p.Rules {
		g, _ := rl.Head.GroupArg()
		if g >= 0 {
			grouping[rl.Head.Pred]++
		}
		add(grouping[rl.Head.Pred] > 1, "two grouping rules")
		for i, a := range rl.Head.Args {
			c, compound := a.(*term.Compound)
			_, atom := a.(term.Atom)
			_, v := a.(term.Var)
			add(v && g >= 0 && slices.Index(rl.Head.Args, a) < i, "repeated key")
			add(v && g >= 0, "variable key")
			add(atom && g >= 0, "constant key")
			add(compound && c.Functor == "scons", "scons")
			add(compound && c.Functor != "scons", "function symbol")
			add(compound && c.Functor != "scons" && g >= 0, "compound key")
		}
		recursive := slices.ContainsFunc(rl.Body, func(l ast.Literal) bool { return l.Pred == rl.Head.Pred })
		for _, l := range rl.Body {
			add(layering.IsBuiltin(l.Pred), l.Pred)
			add(l.Pred == "union" && !readBy(rl.Body, l.Args[0]), "union enumeration")
			add(l.Pred == "partition" && recursive, "recursion through partition")
			add(l.Pred == rl.Head.Pred, "recursion")
			add(l.Negated, "negation")
			add(l.Negated && grouping[l.Pred] > 0, "grouping below negation")
		}
	}
	add(lay.Coarse().NumStrata >= 4, "three strict layers")
	slices.Sort(fs)
	return slices.Compact(fs)
}
