package ldl1

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
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

// TestShippedProgramsEitherLayering checks Theorem 2 on every shipped
// program and on the benchmark's tree program: the model Engine.Run computes
// under the finest layering equals evaluation under the minimum-index one
// (Layering.Coarse), whose strata are pinned — they are the layering the
// engine evaluated by before it ran one layer per component.
func TestShippedProgramsEitherLayering(t *testing.T) {
	coarse := map[string]map[string]int{
		"bookdeal.ldl": {"book": 0, "book_deal": 0},
		"family.ldl":   {"ancestor": 0, "excl_ancestor": 1, "parent": 0, "person": 0},
		"partcost.ldl": {"p": 0, "part": 1, "q": 0, "result": 1, "tc": 1},
		"samegen.ldl":  {"a": 0, "hasdesc": 0, "p": 0, "sg": 0, "siblings": 0, "young": 1},
		"schedule.ldl": {"out": 2, "out_q1_2": 1, "out_q_1": 1, "r": 0},
		"tree":         {"a": 0, "hasdesc": 0, "kids": 1, "p": 0, "sg": 0, "siblings": 0, "young": 1},
	}
	srcs := map[string]string{"tree": treeProgram(3)}
	files, err := filepath.Glob("programs/*.ldl")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(file)] = string(data)
	}
	if len(srcs) != len(coarse) {
		t.Fatalf("%d programs, %d pinned layerings", len(srcs), len(coarse))
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			unit, err := parser.Parse(srcs[name])
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewFromAST(unit.Program)
			if err != nil {
				t.Fatal(err)
			}
			fine := eng.prog.Layering()
			lay := fine.Coarse()
			if !maps.Equal(lay.Stratum, coarse[name]) {
				t.Errorf("coarse strata %v, want %v", lay.Stratum, coarse[name])
			}
			if fine.NumStrata <= lay.NumStrata {
				t.Errorf("finest layering has %d layers, coarse %d", fine.NumStrata, lay.NumStrata)
			}
			m, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := eval.Compile(lay.Rules)
			if err != nil {
				t.Fatal(err)
			}
			db := store.NewDB()
			if err := prog.Run(db, eval.Options{}, nil); err != nil {
				t.Fatal(err)
			}
			if m.Len() == 0 || !db.Equal(m.DB()) {
				t.Errorf("Theorem 2: finest model (%d facts) differs from coarse (%d facts)", m.Len(), db.Len())
			}
		})
	}
}
