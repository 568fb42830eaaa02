package incr

import (
	"os"
	"path/filepath"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// TestApplyMatchesEvalOnRandomPrograms keeps maintenance's part of the
// differential oracle in internal/difftest on programs its generator wrote
// (grouping keys a view finds hard, two grouping rules on one predicate,
// sets read above grouping and negation): with the facts as EDB, a view
// maintained while every fact is retracted one at a time and then inserted
// again equals evaluation from scratch after each transaction.
func TestApplyMatchesEvalOnRandomPrograms(t *testing.T) {
	for name, src := range fixedPrograms(t, "generated_*.ldl") {
		rules, edb := ast.NewProgram(), store.NewDB()
		for _, r := range parser.MustParseProgram(src).Rules {
			if r.IsFact() {
				edb.Insert(term.NewFact(r.Head.Pred, r.Head.Args...))
			} else {
				rules.Add(r)
			}
		}
		var stream []Tx
		for _, f := range edb.Facts() {
			stream = append(stream, Tx{Retract: []*term.Fact{f}})
		}
		for _, f := range edb.Facts() {
			stream = append(stream, Tx{Insert: []*term.Fact{f}})
		}
		m, err := New(rules, edb.Clone(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, tx := range stream {
			mustApply(t, m, tx)
			edb.DeleteAll(tx.Retract)
			edb.LoadFacts(tx.Insert, store.LoadOpts{})
			want, err := eval.Eval(rules, edb, eval.Options{})
			if err != nil {
				t.Fatalf("%s, transaction %d: %v", name, k, err)
			}
			if got := m.Snapshot(); !got.Equal(want) {
				t.Fatalf("%s, transaction %d (+%v -%v):\n%s\nfrom scratch:\n%s", name, k, tx.Insert, tx.Retract, got, want)
			}
		}
	}
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
