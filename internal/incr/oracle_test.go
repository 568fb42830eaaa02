package incr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/eval"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
	"ldl1/internal/term"
)

// randRules generates a random admissible rule set over EDB predicates
// e0, e1 (binary) and an IDB tower i0..i{k-1}, with negation strictly below
// and a grouping predicate grp on top — the same schema as the evaluator's
// differential test, minus the facts (the oracle supplies those as EDB).
// grp's class key is, at random, a variable, a constant, a compound or a
// repeated variable (then sometimes with a second grouping rule whose keys
// differ, so rederiving its facts meets the repeated variable's conflict);
// rules above read the grouped sets through member and through a negated
// set pattern.
func randRules(r *rand.Rand, idbCount, rulesPer int) string {
	var sb strings.Builder
	pred := func(level int) string {
		if level == 0 || r.Intn(3) == 0 {
			return []string{"e0", "e1"}[r.Intn(2)]
		}
		return fmt.Sprintf("i%d", r.Intn(level))
	}
	vars := []string{"X", "Y", "Z"}
	for level := 0; level < idbCount; level++ {
		head := fmt.Sprintf("i%d", level)
		for k := 0; k < rulesPer; k++ {
			nPos := 2 + r.Intn(2)
			var body []string
			used := map[string]bool{}
			for j := 0; j < nPos; j++ {
				p := pred(level)
				v1 := vars[r.Intn(3)]
				v2 := vars[r.Intn(3)]
				used[v1], used[v2] = true, true
				if j == 0 && level > 0 && r.Intn(4) == 0 {
					p = head // same-stratum recursion
				}
				body = append(body, fmt.Sprintf("%s(%s, %s)", p, v1, v2))
			}
			if level > 0 && r.Intn(3) == 0 {
				var bound []string
				for v := range used {
					bound = append(bound, v)
				}
				v1 := bound[r.Intn(len(bound))]
				v2 := bound[r.Intn(len(bound))]
				body = append(body, fmt.Sprintf("not %s(%s, %s)", pred(level), v1, v2))
			}
			var bound []string
			for _, v := range vars {
				if used[v] {
					bound = append(bound, v)
				}
			}
			h1 := bound[r.Intn(len(bound))]
			h2 := bound[r.Intn(len(bound))]
			fmt.Fprintf(&sb, "%s(%s, %s) <- %s.\n", head, h1, h2, strings.Join(body, ", "))
		}
	}
	top := fmt.Sprintf("i%d", idbCount-1)
	key := []string{"X", "c0", "f(X)", "X, X"}[r.Intn(4)]
	fmt.Fprintf(&sb, "grp(%s, <Y>) <- %s(X, Y).\n", key, top)
	if key == "X, X" && r.Intn(2) == 0 {
		fmt.Fprintf(&sb, "grp(X, Z, <Y>) <- %s(X, Y), e1(Y, Z).\n", top)
	}
	if r.Intn(3) > 0 {
		fmt.Fprintf(&sb, "mem(Z) <- grp(%s, S), member(Z, S).\n", key)
	}
	if r.Intn(3) > 0 {
		fmt.Fprintf(&sb, "neg(X, Y) <- %s(X, Y), not grp(%s, {Y}).\n", pred(idbCount), key)
	}
	return sb.String()
}

func randEDBFact(r *rand.Rand) *term.Fact {
	pred := []string{"e0", "e1"}[r.Intn(2)]
	return term.NewFact(pred,
		term.Atom(fmt.Sprintf("c%d", r.Intn(6))),
		term.Atom(fmt.Sprintf("c%d", r.Intn(6))))
}

// randTxs generates a transaction sequence; retractions are biased toward
// facts actually live in the evolving EDB so delete paths genuinely fire.
func randTxs(r *rand.Rand, initial []*term.Fact, count int) []Tx {
	live := append([]*term.Fact(nil), initial...)
	txs := make([]Tx, count)
	for t := range txs {
		var tx Tx
		for k, n := 0, 1+r.Intn(3); k < n; k++ {
			f := randEDBFact(r)
			tx.Insert = append(tx.Insert, f)
			live = append(live, f)
		}
		for k, n := 0, r.Intn(3); k < n; k++ {
			if len(live) > 0 && r.Intn(10) < 8 {
				tx.Retract = append(tx.Retract, live[r.Intn(len(live))])
			} else {
				tx.Retract = append(tx.Retract, randEDBFact(r))
			}
		}
		txs[t] = tx
	}
	return txs
}

// TestApplyMatchesEvalOnRandomPrograms is the incremental-correctness
// oracle (ISSUE 3): for random admissible programs and random update
// sequences, Apply-ing each transaction yields a model identical to
// evaluating the program from scratch on the transaction's final EDB.
func TestApplyMatchesEvalOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(1987))
	trials := 0
	for trials < 30 {
		src := randRules(r, 1+r.Intn(3), 1+r.Intn(3))
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		if ast.CheckWellFormed(p) != nil {
			continue
		}
		if _, err := layering.Stratify(p); err != nil {
			continue
		}
		trials++

		var initial []*term.Fact
		for k, n := 0, 6+r.Intn(6); k < n; k++ {
			initial = append(initial, randEDBFact(r))
		}
		txs := randTxs(r, initial, 6)

		edb := store.NewDB()
		for _, f := range initial {
			edb.Insert(f)
		}
		m, err := New(p, edb.Clone(), Options{})
		if err != nil {
			t.Fatalf("trial %d: New: %v\n%s", trials, err, src)
		}
		for k, tx := range txs {
			if _, err := m.Apply(tx); err != nil {
				t.Fatalf("trial %d tx %d: Apply: %v\n%s", trials, k, err, src)
			}
			for _, f := range tx.Insert {
				edb.Insert(f)
			}
			for _, f := range tx.Retract {
				edb.Delete(f)
			}
			want, err := eval.Eval(p, edb, eval.Options{})
			if err != nil {
				t.Fatalf("trial %d tx %d: oracle eval: %v\n%s", trials, k, err, src)
			}
			if got := m.Snapshot(); !got.Equal(want) {
				t.Fatalf("trial %d tx %d: incremental model diverged\nprogram:\n%s\ntx: +%v -%v\ngot:\n%s\nwant:\n%s",
					trials, k, src, tx.Insert, tx.Retract, got, want)
			}
		}
	}
}
