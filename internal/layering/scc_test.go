package layering

import (
	"reflect"
	"testing"

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
