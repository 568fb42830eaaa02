package layering

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/parser"
)

func TestFinestLayeringValid(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X, Y) <- p(X, Y).
		a(X, Y) <- a(X, Z), a(Z, Y).
		sg(X, Y) <- siblings(X, Y).
		sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
		hasdesc(X) <- a(X, Z).
		young(X, <Y>) <- sg(X, Y), not hasdesc(X).
	`)
	fine, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	coarse := fine.Coarse()
	// One layer per derived component above the EDB layer.
	if fine.NumStrata != 5 || coarse.NumStrata != 2 {
		t.Fatalf("finest has %d strata, coarse %d", fine.NumStrata, coarse.NumStrata)
	}
	if fine.Stratum["p"] != 0 || fine.Stratum["siblings"] != 0 || len(fine.Rules[0]) != 0 {
		t.Errorf("EDB predicates and no rule in layer 0: %v", fine.Stratum)
	}
	if fine.Stratum["a"] == fine.Stratum["sg"] {
		t.Error("independent SCCs a and sg should be in distinct layers")
	}
	// Layering conditions hold: young strictly above sg and hasdesc.
	if !(fine.Stratum["young"] > fine.Stratum["sg"] && fine.Stratum["young"] > fine.Stratum["hasdesc"]) {
		t.Errorf("strata = %v", fine.Stratum)
	}
	if !(fine.Stratum["hasdesc"] > fine.Stratum["a"]) {
		t.Errorf("hasdesc not above a: %v", fine.Stratum)
	}
	// Every rule lands in some layer, in both forms.
	for _, l := range []*Layering{fine, coarse} {
		total := 0
		for _, rules := range l.Rules {
			total += len(rules)
		}
		if total != len(p.Rules) {
			t.Errorf("rules partitioned %d of %d", total, len(p.Rules))
		}
	}
}

func TestFinestKeepsSCCsTogether(t *testing.T) {
	p := parser.MustParseProgram(`
		a(X) <- b(X).
		b(X) <- a(X).
		a(X) <- e(X).
		c(X) <- a(X).
		e(1).
	`)
	fine, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"e": 0, "a": 1, "b": 1, "c": 2}
	if !reflect.DeepEqual(fine.Stratum, want) {
		t.Errorf("strata = %v, want %v", fine.Stratum, want)
	}
	// A predicate only facts define is not derived: its facts sit in layer 0.
	if len(fine.Rules[0]) != 1 || !fine.Rules[0][0].IsFact() {
		t.Errorf("layer 0 rules = %v", fine.Rules[0])
	}
	if c := fine.Coarse(); c.NumStrata != 1 {
		t.Errorf("coarse strata = %v", c.Stratum)
	}
}

func TestFinestRejectsInadmissible(t *testing.T) {
	p := parser.MustParseProgram(`
		win(X) <- move(X, Y), not win(Y).
	`)
	if _, err := Stratify(p); err == nil {
		t.Fatal("inadmissible program accepted")
	}
}

// TestCoarseIsMinimumIndex compares Stratify on random programs with the
// constraint fixpoint that defines the minimum-index layering:
// stratum(p) ≥ stratum(q) for p ≥ q, stratum(p) > stratum(q) for p > q,
// inadmissible once a stratum passes the number of predicates.  The two
// agree on admissibility and Coarse reproduces the fixpoint's strata; the
// finest layering satisfies the same constraints.
func TestCoarseIsMinimumIndex(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	admissible := 0
	for trial := 0; trial < 400; trial++ {
		p := randGraphProgram(r)
		want, ok := fixpointStrata(p)
		fine, err := Stratify(p)
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
		for _, e := range Edges(p) {
			from, to := fine.Stratum[e.From], fine.Stratum[e.To]
			if from < to || e.Strict && from == to {
				t.Fatalf("trial %d: finest %v breaks %+v\n%s", trial, fine.Stratum, e, p)
			}
		}
	}
	if admissible < 100 {
		t.Fatalf("only %d of 400 random programs admissible", admissible)
	}
}

// checkWitness checks that err is a NotAdmissibleError whose cycle is a
// closed path of p's dependency edges, one of them strict.
func checkWitness(t *testing.T, trial int, p *ast.Program, err error) {
	t.Helper()
	var nae *NotAdmissibleError
	if !errors.As(err, &nae) || len(nae.Cycle) < 2 || nae.Cycle[0] != nae.Cycle[len(nae.Cycle)-1] {
		t.Fatalf("trial %d: witness %v\n%s", trial, err, p)
	}
	strict := false
	for k := 0; k+1 < len(nae.Cycle); k++ {
		found := false
		for _, e := range Edges(p) {
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

// randGraphProgram returns a random program over predicates p0..p5 with
// negated literals and grouping heads.
func randGraphProgram(r *rand.Rand) *ast.Program {
	var sb strings.Builder
	for i, n := 0, 1+r.Intn(6); i < n; i++ {
		head := fmt.Sprintf("p%d(X)", r.Intn(6))
		if r.Intn(5) == 0 {
			head = fmt.Sprintf("p%d(<X>)", r.Intn(6))
		}
		body := []string{fmt.Sprintf("p%d(X)", r.Intn(6))}
		if r.Intn(2) == 0 {
			body = append(body, fmt.Sprintf("not p%d(X)", r.Intn(6)))
		}
		fmt.Fprintf(&sb, "%s <- %s.\n", head, strings.Join(body, ", "))
	}
	return parser.MustParseProgram(sb.String())
}

// fixpointStrata is the minimum-index layering by constraint iteration.
func fixpointStrata(p *ast.Program) (map[string]int, bool) {
	stratum := map[string]int{}
	edges := Edges(p)
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
