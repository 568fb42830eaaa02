package magic

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
)

// randChainProgram generates a small admissible program with recursion and
// optional negation, plus a selective query on the top predicate.
func randChainProgram(r *rand.Rand) (src, query string) {
	var sb strings.Builder
	n := 6 + r.Intn(8)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "e(c%d, c%d).\n", i, i+1)
	}
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&sb, "f(c%d, c%d).\n", r.Intn(n), r.Intn(n))
	}
	sb.WriteString(`
		t(X, Y) <- e(X, Y).
		t(X, Y) <- e(X, Z), t(Z, Y).
	`)
	switch r.Intn(3) {
	case 0:
		sb.WriteString("top(X, Y) <- t(X, Y), not f(X, Y).\n")
	case 1:
		sb.WriteString("top(X, Y) <- t(X, Y), f(Y, Z), t(X, Z).\n")
	default:
		sb.WriteString("top(X, Y) <- t(X, Y).\n")
	}
	return sb.String(), fmt.Sprintf("top(c%d, W)", r.Intn(n))
}

func TestRandomMagicDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		src, qsrc := randChainProgram(r)
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ast.CheckWellFormed(p); err != nil {
			continue
		}
		if _, err := layering.Stratify(p); err != nil {
			continue
		}
		q, err := parser.ParseQuery(qsrc)
		if err != nil {
			t.Fatal(err)
		}
		base, err := baseline(p, q, eval.Options{})
		if err != nil {
			t.Fatalf("trial %d: baseline: %v\n%s", trial, err, src)
		}
		for _, v := range []Variant{Basic, Supplementary} {
			res, err := answer(p, store.NewDB(), q, eval.Options{}, v)
			if err != nil {
				t.Fatalf("trial %d variant %d: %v\n%s", trial, v, err, src)
			}
			if !sameRows(res.Solutions, base) {
				t.Fatalf("trial %d variant %d: %q\nmagic %v\nbaseline %v\nprogram:\n%s",
					trial, v, qsrc, res.Solutions, base, src)
			}
		}
	}
}
