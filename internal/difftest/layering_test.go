package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
)

// TestCoarseIsMinimumIndex compares layering.Stratify with the constraint
// fixpoint that defines the minimum-index layering: stratum(p) ≥ stratum(q)
// for p ≥ q, stratum(p) > stratum(q) for p > q, inadmissible once a stratum
// passes the number of predicates.  Its programs are generated ones plus up
// to three rules over p0..p2, which may close a cycle through negation or
// grouping.  The two agree on admissibility and Coarse reproduces the
// fixpoint's strata; the finest layering satisfies the same constraints.
func TestCoarseIsMinimumIndex(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	admissible := 0
	for trial := 0; trial < 400; trial++ {
		src := program(r)
		for n := r.Intn(4); n > 0; n-- {
			head := []string{"X", "<X>"}[r.Intn(5)/4] // grouping one time in five
			neg := []string{"", fmt.Sprintf(", not p%d(X)", r.Intn(3))}[r.Intn(2)]
			src += fmt.Sprintf("p%d(%s) <- p%d(X)%s.\n", r.Intn(3), head, r.Intn(3), neg)
		}
		p := parser.MustParseProgram(src)
		want, ok := fixpointStrata(p)
		fine, err := layering.Stratify(p)
		if ok != (err == nil) {
			t.Fatalf("trial %d: fixpoint admissible %v, Stratify error %v\n%s", trial, ok, err, p)
		}
		if !ok {
			checkWitness(t, trial, p, err)
			continue
		}
		admissible++
		if got := fine.Coarse().Stratum; !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: coarse %v, fixpoint %v\n%s", trial, got, want, p)
		}
		for _, e := range layering.Edges(p) {
			from, to := fine.Stratum[e.From], fine.Stratum[e.To]
			if from < to || e.Strict && from == to {
				t.Fatalf("trial %d: finest %v breaks %+v\n%s", trial, fine.Stratum, e, p)
			}
		}
	}
	if admissible < 100 || admissible > 300 {
		t.Fatalf("%d of 400 programs admissible, want both kinds", admissible)
	}
}

// checkWitness checks that err is a NotAdmissibleError whose cycle is a
// closed path of p's dependency edges, one of them strict.
func checkWitness(t *testing.T, trial int, p *ast.Program, err error) {
	t.Helper()
	var nae *layering.NotAdmissibleError
	if !errors.As(err, &nae) || len(nae.Cycle) < 2 || nae.Cycle[0] != nae.Cycle[len(nae.Cycle)-1] {
		t.Fatalf("trial %d: witness %v\n%s", trial, err, p)
	}
	strict := false
	for k := 0; k+1 < len(nae.Cycle); k++ {
		found := false
		for _, e := range layering.Edges(p) {
			if e.From == nae.Cycle[k] && e.To == nae.Cycle[k+1] {
				found, strict = true, strict || e.Strict
			}
		}
		if !found {
			t.Fatalf("trial %d: witness %v has no edge %s -> %s\n%s", trial, nae.Cycle, nae.Cycle[k], nae.Cycle[k+1], p)
		}
	}
	if !strict {
		t.Fatalf("trial %d: witness %v has no strict edge\n%s", trial, nae.Cycle, p)
	}
}

// fixpointStrata is the minimum-index layering by constraint iteration.
func fixpointStrata(p *ast.Program) (map[string]int, bool) {
	stratum := map[string]int{}
	edges := layering.Edges(p)
	for _, r := range p.Rules {
		stratum[r.Head.Pred] = 0
	}
	for _, e := range edges {
		stratum[e.To] = 0
	}
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			want := stratum[e.To]
			if e.Strict {
				want++
			}
			if stratum[e.From] < want {
				if want > len(stratum) {
					return nil, false
				}
				stratum[e.From], changed = want, true
			}
		}
	}
	return stratum, true
}
