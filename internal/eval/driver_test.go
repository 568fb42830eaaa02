package eval

import (
	"context"
	"testing"

	"ldl1/internal/store"
	"ldl1/internal/term"
)

// inserter is a sink that inserts every new head fact into db.
type inserter struct{ db *store.DB }

func (s inserter) Probe(pred string) (*store.Relation, bool) { return s.db.RelOrNil(pred), false }

func (s inserter) Accept(f *term.Fact) (bool, error) { return s.db.Insert(f), nil }

// TestRoundFeedsLaterTasks pins the one way a round runs: a head fact goes
// to the sink during the join that found it, so a later task of the same
// round reads what an earlier task's sink inserted — for a maintenance
// driver exactly as for evaluation.
func TestRoundFeedsLaterTasks(t *testing.T) {
	first := mustCompileRule(t, `q(X) <- p(X).`)
	second := mustCompileRule(t, `r(X) <- q(X).`)
	db := store.NewDB()
	delta := store.NewRelation("p", false)
	delta.Insert(term.NewFact("p", atom("a")))

	var st Stats
	next := NewFrontier(false)
	tasks := []Task{first.Delta(0).Task(db, delta), second.base.Task(db, nil)}
	if err := NewDriver(context.Background(), &st, 0).Round(tasks, inserter{db}, next); err != nil {
		t.Fatal(err)
	}
	if !db.Contains(term.NewFact("r", atom("a"))) {
		t.Fatal("the second task did not see q(a), which the first task's sink inserted")
	}
	if next.n != 2 || st.Firings != 2 {
		t.Errorf("frontier holds %d facts after %d firings, want 2 and 2", next.n, st.Firings)
	}
}
