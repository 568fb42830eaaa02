package ldl1

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldl1/internal/eval"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// TestShippedPrograms loads every .ldl file under programs/, checks it
// compiles and stratifies, evaluates it, and answers its embedded queries.
func TestShippedPrograms(t *testing.T) {
	files, err := filepath.Glob("programs/*.ldl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("expected ≥5 shipped programs, found %d", len(files))
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			unit, err := parser.Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewFromAST(unit.Program)
			if err != nil {
				t.Fatal(err)
			}
			if len(unit.Queries) == 0 {
				t.Fatal("shipped programs should embed at least one query")
			}
			for _, q := range unit.Queries {
				qs := strings.TrimSuffix(strings.TrimPrefix(q.String(), "?- "), ".")
				ans, err := eng.Query(qs)
				if err != nil {
					t.Fatalf("query %s: %v", q, err)
				}
				if ans.Empty() {
					t.Errorf("query %s returned no answers", q)
				}
			}
		})
	}
}

// TestShippedProgramsExpectedAnswers pins a few concrete answers.
func TestShippedProgramsExpectedAnswers(t *testing.T) {
	cases := map[string]struct {
		query string
		want  string
	}{
		"programs/family.ldl":   {"excl_ancestor(carl, Y, cora)", "Y = dee"},
		"programs/partcost.ldl": {"result(1, C)", "C = 245"},
		"programs/samegen.ldl":  {"young(john, S)", "S = {jack}"},
	}
	for file, c := range cases {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := parser.Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewFromAST(unit.Program)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := eng.Query(c.query)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if got := ans.String(); got != c.want {
			t.Errorf("%s %s = %q, want %q", file, c.query, got, c.want)
		}
	}
}

// TestEngineRunPlansAsEval pins that the engine hands the planner nothing a
// direct eval caller lacks: for every shipped program, Engine.Run and
// eval.Eval of the compiled program over an empty database count exactly
// the same work.
func TestEngineRunPlansAsEval(t *testing.T) {
	files, err := filepath.Glob("programs/*.ldl")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			unit, err := parser.Parse(string(data))
			if err != nil {
				t.Fatal(err)
			}
			var viaEngine, direct Stats
			eng, err := NewFromAST(unit.Program, WithStats(&viaEngine))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := eval.Eval(eng.source, store.NewDB(), eval.Options{Stats: &direct}); err != nil {
				t.Fatal(err)
			}
			if direct.Derived == 0 {
				t.Fatal("the program derives nothing; the comparison is empty")
			}
			if viaEngine != direct {
				t.Errorf("Engine.Run counted %+v, eval.Eval %+v", viaEngine, direct)
			}
		})
	}
}
