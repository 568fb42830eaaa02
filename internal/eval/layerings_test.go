package eval

import (
	"os"
	"path/filepath"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/model"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// The differential oracle of every path is internal/difftest, on the
// programs its generator writes.  The tests here keep the evaluator's part
// of it on the oracle's fixed inputs, so that a change to this package
// fails in this package.

// TestTheorem2LayeringIndependence checks Theorem 2 on hand-written programs
// whose finest and coarse layerings differ: one model under both.
func TestTheorem2LayeringIndependence(t *testing.T) { sameModel(t, "theorem2_*.ldl") }

// TestRandomProgramsDifferential runs the same check on programs the
// generator wrote, which use sets, grouping below negation and function
// symbols.
func TestRandomProgramsDifferential(t *testing.T) { sameModel(t, "generated_*.ldl") }

// sameModel requires naive and semi-naive evaluation under the finest and
// the coarse layering to give one model of each program matching glob, and
// the model checker to accept it.
func sameModel(t *testing.T, glob string) {
	for name, src := range fixedPrograms(t, glob) {
		p := parser.MustParseProgram(src)
		fine, err := layering.Stratify(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want *store.DB
		for _, groups := range [][][]ast.Rule{fine.Rules, fine.Coarse().Rules} {
			for _, s := range []Strategy{SemiNaive, Naive} {
				db := store.NewDB()
				if err := evalGroups(groups, db, Options{Strategy: s}); err != nil {
					t.Fatalf("%s, %d layers, strategy %d: %v", name, len(groups), s, err)
				}
				if want == nil {
					want = db
				} else if !db.Equal(want) {
					t.Errorf("%s, %d layers, strategy %d:\n%s\nfinest, semi-naive:\n%s", name, len(groups), s, db, want)
				}
			}
		}
		if v, err := model.Check(p, want); err != nil || v != nil {
			t.Errorf("%s: model check: %v %v", name, v, err)
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
