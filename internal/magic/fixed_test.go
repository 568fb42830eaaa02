package magic

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// The differential oracle of both variants is internal/difftest, on the
// programs its generator writes.  The two tests here keep it on the
// oracle's fixed inputs, so that a change to this package fails in this
// package.

// TestRandomMagicDifferential asks both variants, on every fixed input, a
// query on each derived predicate whose first argument is bound in turn to
// each value it takes in the model, and compares the answers with the
// model's.
func TestRandomMagicDifferential(t *testing.T) {
	for name, src := range fixedPrograms(t, "*.ldl") {
		p := parser.MustParseProgram(src)
		checkMagic(t, name, p, store.NewDB(), -1)
	}
}

// TestSaturationAcrossLayers checks the termination rule (a pass is final
// when no magic fact arrived after the first group that reads it) and what
// is kept between passes, on the programs the generator wrote: their
// rewritten programs are cyclic through magic predicates across layers.
// Both variants, with the facts in the text and preloaded into the EDB,
// answer as the model does, and some execution needs more than two passes.
func TestSaturationAcrossLayers(t *testing.T) {
	multi := 0
	for name, src := range fixedPrograms(t, "generated_*.ldl") {
		p := parser.MustParseProgram(src)
		rules, edb := ast.NewProgram(), store.NewDB()
		for _, r := range p.Rules {
			if r.IsFact() {
				edb.Insert(term.NewFact(r.Head.Pred, r.Head.Args...))
			} else {
				rules.Add(r)
			}
		}
		multi += checkMagic(t, name, p, store.NewDB(), 1)
		multi += checkMagic(t, name, rules, edb, 1)
	}
	if multi == 0 {
		t.Error("no execution needed more than two passes: the fixed inputs no longer exercise re-derivation")
	}
}

// checkMagic runs both variants over p and edb on
// queries on each derived predicate binding its first argument to a value
// it takes in the model, at most per of them when per > 0, and fails t
// where an answer differs from the model's.  It returns the number of
// executions that needed more than two passes.
func checkMagic(t *testing.T, name string, p *ast.Program, edb *store.DB, per int) (multi int) {
	t.Helper()
	m, err := eval.Eval(p, edb, eval.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var preds []string
	for _, r := range p.Rules {
		if !r.IsFact() && !slices.Contains(preds, r.Head.Pred) {
			preds = append(preds, r.Head.Pred)
		}
	}
	for _, pred := range preds {
		rel, seen := m.RelOrNil(pred), map[string]bool{}
		if rel == nil {
			continue
		}
		for _, f := range rel.All() {
			if seen[f.Args[0].String()] || per > 0 && len(seen) == per {
				continue
			}
			seen[f.Args[0].String()] = true
			args := []term.Term{f.Args[0]}
			for i := 1; i < len(f.Args); i++ {
				args = append(args, term.Var(fmt.Sprint("W", i)))
			}
			q := parser.Query{Body: []ast.Literal{ast.NewLit(pred, args...)}}
			want, err := eval.SolveLimitsCtx(context.Background(), q.Body, m, eval.SolveLimits{})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, q, err)
			}
			for _, v := range []Variant{Basic, Supplementary} {
				res, err := answer(p, edb, q, eval.Options{}, v)
				if err != nil {
					t.Fatalf("%s, %s, variant %d: %v", name, q, v, err)
				}
				if !sameRows(res.Solutions, want) {
					t.Errorf("%s, %s, variant %d (%d passes): %v, the model %v", name, q, v, res.Passes, res.Solutions, want)
				}
				if res.Passes > 2 {
					multi++
				}
			}
		}
	}
	return multi
}

// fixedPrograms returns the text of each fixed input of internal/difftest
// whose file name matches glob, by file name.
func fixedPrograms(t *testing.T, glob string) map[string]string {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join("..", "difftest", "testdata", glob))
	srcs := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	if len(srcs) == 0 {
		t.Fatalf("no program matches %s", glob)
	}
	return srcs
}
