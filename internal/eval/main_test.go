package eval

import (
	"os"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// Every test of the package runs with frontiers checking that no sink
// accepts a fact twice in one round, the assumption behind the no-dedup
// delta relations.
func TestMain(m *testing.M) {
	DebugFrontier = true
	os.Exit(m.Run())
}

// evalGroups compiles rule groups and runs them once against db.
func evalGroups(groups [][]ast.Rule, db *store.DB, opts Options) error {
	prog, err := Compile(groups)
	if err != nil {
		return err
	}
	return prog.Run(db, opts, nil)
}

func TestFrontierChecksDistinctness(t *testing.T) {
	fr := NewFrontier(false, NewFeeds(nil))
	fr.Add(term.NewFact("p", term.Int(1)))
	fr.Add(term.NewFact("p", term.Int(2)))
	defer func() {
		if recover() == nil {
			t.Error("a fact added twice to one frontier went unnoticed")
		}
	}()
	fr.Add(term.NewFact("p", term.Int(1)))
}
