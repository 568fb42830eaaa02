package ldl1

// One benchmark family per experiment of DESIGN.md / EXPERIMENTS.md.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host; the paper's claims are about
// *shape* — who wins and how the gap scales — which the relative figures
// here reproduce (see EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/lps"
	"ldl1/internal/magic"
	"ldl1/internal/model"
	"ldl1/internal/parser"
	"ldl1/internal/rewrite"
	"ldl1/internal/store"
	"ldl1/internal/term"
	"ldl1/internal/workload"
)

const benchAncestorRules = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
`

func benchEval(b *testing.B, src string, db *store.DB, strat eval.Strategy) {
	b.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Eval(p, db, eval.Options{Strategy: strat}); err != nil {
			b.Fatal(err)
		}
	}
}

// E1: §1 ancestor, naive vs semi-naive over chains and random DAGs.
func BenchmarkE01AncestorNaive(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			benchEval(b, benchAncestorRules, workload.ParentChain(n), eval.Naive)
		})
	}
}

func BenchmarkE01AncestorSemiNaive(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			benchEval(b, benchAncestorRules, workload.ParentChain(n), eval.SemiNaive)
		})
	}
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("dag-%d", n), func(b *testing.B) {
			benchEval(b, benchAncestorRules, workload.RandomDAG(n, 2, 1), eval.SemiNaive)
		})
	}
}

// E2: §1 excl_ancestor with stratified negation.
func BenchmarkE02ExclAncestor(b *testing.B) {
	src := benchAncestorRules + `
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
	`
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("chain-%d", n), func(b *testing.B) {
			benchEval(b, src, workload.Persons(workload.ParentChain(n), n), eval.SemiNaive)
		})
	}
}

// E4: §1 book_deal set enumeration.
func BenchmarkE04BookDeal(b *testing.B) {
	src := `book_deal({X, Y, Z}) <- book(X, Px), book(Y, Py), book(Z, Pz), Px + Py + Pz < 100.`
	for _, n := range []int{8, 16, 24} {
		b.Run(fmt.Sprintf("books-%d", n), func(b *testing.B) {
			benchEval(b, src, workload.Books(n, 7), eval.SemiNaive)
		})
	}
}

// E5: §1 supplier-parts grouping.
func BenchmarkE05Grouping(b *testing.B) {
	src := `supplies(S, <P>) <- sp(S, P).`
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("suppliers-%d", n), func(b *testing.B) {
			benchEval(b, src, workload.SupplierParts(n, 8, 11), eval.SemiNaive)
		})
	}
}

const benchPartCost = `
	part(P, <S>) <- p(P, S).
	tc({X}, C) <- q(X, C).
	tc({X}, C) <- part(X, S), tc(S, C).
	tc(S, C) <- partition(S, S1, S2), tc(S1, C1), tc(S2, C2), C = C1 + C2.
	result(X, C) <- tc(S, C), member(X, S), S = {X}.
`

// E6: §1 part-cost (grouping + partition + set recursion).
func BenchmarkE06PartCost(b *testing.B) {
	for _, cfg := range [][2]int{{1, 4}, {2, 2}, {1, 6}} {
		b.Run(fmt.Sprintf("depth%d-fanout%d", cfg[0], cfg[1]), func(b *testing.B) {
			benchEval(b, benchPartCost, workload.BOM(cfg[0], cfg[1]), eval.SemiNaive)
		})
	}
}

// E7-E9: §2 model checking (grouping truth definition + dominance).
func BenchmarkE07ModelCheck(b *testing.B) {
	p := parser.MustParseProgram(`
		q(X) <- p(X), h(X).
		p(<X>) <- r(X).
		r(1).
		h({1}).
	`)
	m := store.NewDB()
	for _, r := range parser.MustParseProgram("r(1). h({1}). p({1}). q({1}).").Rules {
		m.Insert(term.NewFact(r.Head.Pred, r.Head.Args...))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ok, err := model.IsModel(p, m)
		if err != nil || !ok {
			b.Fatalf("IsModel = %v, %v", ok, err)
		}
	}
}

// E10: Theorem 1 — evaluate and verify the result is a model.
func BenchmarkE10EvalAndVerify(b *testing.B) {
	src := benchAncestorRules
	p := parser.MustParseProgram(src)
	db := workload.ParentChain(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := eval.Eval(p, db, eval.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ok, err := model.IsModel(p, m)
		if err != nil || !ok {
			b.Fatal("result is not a model")
		}
	}
}

// E11: §3.3 negation elimination — original vs positive program.
func BenchmarkE11NegElim(b *testing.B) {
	src := benchAncestorRules + `
		excl_ancestor(X, Y, Z) <- ancestor(X, Y), not ancestor(X, Z), person(Z).
	`
	p := parser.MustParseProgram(src)
	pos, err := rewrite.EliminateNegation(p)
	if err != nil {
		b.Fatal(err)
	}
	db := workload.Persons(workload.ParentChain(16), 16)
	b.Run("original", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.Eval(p, db, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("positive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eval.Eval(pos, db, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E12: §4.1 body patterns (rewrite + evaluate).
func BenchmarkE12BodyPatterns(b *testing.B) {
	p := parser.MustParseProgram(`
		pa({{1, 2}, {3}, {4, 5}}). pa({{6}, {7, 8}}).
		oka(X) <- pa(<<X>>).
	`)
	rp, err := rewrite.Rewrite(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Eval(rp, store.NewDB(), eval.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E13: §4.2 complex head terms over teacher schedules.
func BenchmarkE13HeadTerms(b *testing.B) {
	for _, h := range []struct{ name, rule string }{
		{"distribute", "out(T, <S>, <D>) <- r(T, S, C, D)."},
		{"nested", "out(T, <h(S, <D>)>) <- r(T, S, C, D)."},
	} {
		b.Run(h.name, func(b *testing.B) {
			p := parser.MustParseProgram(h.rule)
			rp, err := rewrite.Rewrite(p)
			if err != nil {
				b.Fatal(err)
			}
			db := workload.TeacherSchedule(8, 6, 4, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(rp, db, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E14: §5 LPS — direct evaluation vs the Theorem 3 translation.
func BenchmarkE14LPS(b *testing.B) {
	prog := &lps.Program{Rules: []lps.Rule{{
		Head:    ast.NewLit("disj", term.Var("X"), term.Var("Y")),
		Regular: []ast.Literal{ast.NewLit("pair", term.Var("X"), term.Var("Y"))},
		Quants:  []lps.Quant{{Elem: "Ex", Set: "X"}, {Elem: "Ey", Set: "Y"}},
		Body:    []ast.Literal{ast.NewLit("/=", term.Var("Ex"), term.Var("Ey"))},
	}}}
	db := workload.SetPairs(128, 6, 9)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lps.Eval(prog, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("translated", func(b *testing.B) {
		ldlProg, err := lps.Translate(prog)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eval.Eval(ldlProg, db, eval.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const benchYoung = `
	a(X, Y) <- p(X, Y).
	a(X, Y) <- a(X, Z), a(Z, Y).
	sg(X, Y) <- siblings(X, Y).
	sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
	hasdesc(X) <- a(X, Z).
	young(X, <Y>) <- sg(X, Y), not hasdesc(X).
`

// E15: §6 magic sets on a selective query, against the full-evaluation
// baseline, across database sizes.
func BenchmarkE15MagicOn(b *testing.B) {
	p := parser.MustParseProgram(benchYoung)
	q, _ := parser.ParseQuery("young(n16, S)")
	for _, fams := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("families-%d", fams), func(b *testing.B) {
			db := workload.FamilyForest(fams, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := magic.Answer(p, db, q, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE15MagicSupplementary(b *testing.B) {
	p := parser.MustParseProgram(benchYoung)
	q, _ := parser.ParseQuery("young(n16, S)")
	for _, fams := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("families-%d", fams), func(b *testing.B) {
			db := workload.FamilyForest(fams, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := magic.AnswerVariant(p, db, q, eval.Options{}, magic.Supplementary); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE15MagicOff(b *testing.B) {
	p := parser.MustParseProgram(benchYoung)
	q, _ := parser.ParseQuery("young(n16, S)")
	for _, fams := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("families-%d", fams), func(b *testing.B) {
			db := workload.FamilyForest(fams, 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := magic.AnswerWithout(p, db, q, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E16: ablations — indexing on/off under semi-naive evaluation.
func BenchmarkE16Indexing(b *testing.B) {
	p := parser.MustParseProgram(benchAncestorRules)
	for _, idx := range []bool{true, false} {
		name := "indexes-on"
		if !idx {
			name = "indexes-off"
		}
		b.Run(name, func(b *testing.B) {
			db := workload.RandomDAG(128, 2, 5)
			db.UseIndexes = idx
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(p, db, eval.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E16p: parallel round evaluation vs sequential on a wide workload.
func BenchmarkE16Parallel(b *testing.B) {
	p := parser.MustParseProgram(`
		t(X, Y) <- e(X, Y).
		t(X, Y) <- e(X, Z), t(Z, Y).
		s(X, Y) <- f(X, Y).
		s(X, Y) <- f(X, Z), s(Z, Y).
		u(X, Y) <- t(X, Y), s(X, Y).
	`)
	db := workload.RandomDAG(200, 2, 5)
	for _, f := range workload.RandomDAG(200, 2, 6).Facts() {
		db.Insert(term.NewFact("f", f.Args...))
	}
	for _, f := range db.Rel("parent").All() {
		db.Insert(term.NewFact("e", f.Args...))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(p, db, eval.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
