package ldl1

import (
	"errors"
	"strings"
	"testing"
)

func hasCode(ds []Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestVet(t *testing.T) {
	ds := Vet("d(1).\ne(2).\npair(X, Y) <- d(X), e(Y).\n")
	if !hasCode(ds, "LDL108") {
		t.Errorf("cartesian join not reported: %v", ds)
	}
	for _, d := range ds {
		if d.Severity == SeverityError {
			t.Errorf("legal program got an error diagnostic: %v", d)
		}
	}

	ds = Vet("big(X) <- d(Y), Y < X.\nd(1).\n")
	if !hasCode(ds, "LDL001") {
		t.Errorf("unsafe head variable not reported: %v", ds)
	}

	ds = Vet("p(X <- q(X).")
	if !hasCode(ds, "LDL000") {
		t.Errorf("syntax error should become an LDL000 diagnostic: %v", ds)
	}

	if ds := Vet("d(1).\np(X) <- d(X).\n"); len(ds) != 0 {
		t.Errorf("clean program got diagnostics: %v", ds)
	}
}

func TestEngineVet(t *testing.T) {
	eng, err := New("d(1).\np(X) <- edb(X).\n")
	if err != nil {
		t.Fatal(err)
	}
	if ds := eng.Vet(); !hasCode(ds, "LDL102") {
		t.Errorf("undefined predicate not reported before facts arrive: %v", ds)
	}
	if err := eng.AddFacts("edb(7)."); err != nil {
		t.Fatal(err)
	}
	if ds := eng.Vet(); hasCode(ds, "LDL102") {
		t.Errorf("extensional predicate still reported undefined: %v", ds)
	}
}

func TestEngineVetMemoized(t *testing.T) {
	eng, err := New("d(1).\np(X) <- edb(X).\n")
	if err != nil {
		t.Fatal(err)
	}
	first := eng.Vet()
	if len(first) == 0 {
		t.Fatal("expected diagnostics (undefined edb/1)")
	}
	// Callers own the returned slice: mutating it must not change what the
	// next call reports.
	first[0].Code = "MUTATED"
	second := eng.Vet()
	if hasCode(second, "MUTATED") {
		t.Error("a caller's mutation leaked into the next Vet")
	}
	// Vet reads the current extensional predicate set: the LDL102 goes once
	// edb/1 has facts, and repeated calls after further loads of the same
	// predicate agree.
	if err := eng.AddFacts("edb(7)."); err != nil {
		t.Fatal(err)
	}
	if ds := eng.Vet(); hasCode(ds, "LDL102") {
		t.Errorf("a new extensional predicate is still reported undefined: %v", ds)
	}
	if err := eng.AddFacts("edb(8)."); err != nil {
		t.Fatal(err)
	}
	a, b := eng.Vet(), eng.Vet()
	if len(a) != len(b) {
		t.Errorf("repeated Vet disagrees: %v vs %v", a, b)
	}
}

func TestPrepareStrictVetsQuery(t *testing.T) {
	const prog = "num(1).\nnum(2).\n"
	const q = "?- num(X), X = a."

	// Reference: direct Vet of the program with the query appended.
	direct := Vet(prog + q + "\n")
	var want *Diagnostic
	for i, d := range direct {
		if d.Code == "LDL200" {
			want = &direct[i]
			break
		}
	}
	if want == nil {
		t.Fatalf("direct vet misses the type clash: %v", direct)
	}

	eng, err := New(prog, WithStrict())
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Prepare(q)
	var ve *VetError
	if !errors.As(err, &ve) {
		t.Fatalf("strict Prepare should fail with *VetError, got %v", err)
	}
	var got *Diagnostic
	for i, d := range ve.Diagnostics {
		if d.Code == "LDL200" {
			got = &ve.Diagnostics[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("strict Prepare misses the type clash: %v", ve.Diagnostics)
	}
	// Same code and position as direct Vet, modulo the two program lines
	// that precede the query in the direct source.
	if got.Pos.Col != want.Pos.Col || got.Pos.Line != want.Pos.Line-2 {
		t.Errorf("position mismatch: prepared %v vs direct %v", got.Pos, want.Pos)
	}

	// Well-typed queries still prepare, and non-strict engines accept the
	// ill-typed one (it just returns no answers).
	if _, err := eng.Prepare("?- num(X), X > 1."); err != nil {
		t.Errorf("strict Prepare rejected a well-typed query: %v", err)
	}
	plain, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Prepare(q); err != nil {
		t.Errorf("non-strict Prepare rejected the query: %v", err)
	}
}

func TestWithStrict(t *testing.T) {
	// A warning (cartesian join) is enough to fail strict construction.
	_, err := New("d(1).\ne(2).\npair(X, Y) <- d(X), e(Y).\n", WithStrict())
	var ve *VetError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VetError, got %v", err)
	}
	if len(ve.Diagnostics) == 0 || !strings.Contains(ve.Error(), "LDL108") {
		t.Errorf("VetError should carry the diagnostics: %v", ve)
	}

	if _, err := New("d(1).\np(X) <- d(X).\n", WithStrict()); err != nil {
		t.Errorf("clean program rejected under strict: %v", err)
	}

	// Errors the engine itself detects keep their established types even
	// under strict mode.
	_, err = New("p(X, <Y>) <- q(X, Y).\nq(X, Y) <- p(X, Y).\nq(1, 2).", WithStrict())
	if err == nil || errors.As(err, &ve) {
		t.Errorf("admissibility failure should not be converted to VetError: %v", err)
	}
}
