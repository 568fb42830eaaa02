package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldl1/internal/ast"
	"ldl1/internal/layering"
	"ldl1/internal/parser"
	"ldl1/internal/store"
)

// randProgram generates a random admissible program over a fixed schema:
// EDB predicates e0, e1 (binary) and a tower of IDB predicates i0..i{k-1}
// (binary) where rule bodies draw positively from lower-or-equal strata and
// negatively / through grouping strictly from lower ones.
func randProgram(r *rand.Rand, idbCount, rulesPer int) string {
	var sb strings.Builder
	// EDB facts over a small domain.
	for _, e := range []string{"e0", "e1"} {
		n := 4 + r.Intn(5)
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, "%s(c%d, c%d).\n", e, r.Intn(6), r.Intn(6))
		}
	}
	pred := func(level int) string {
		// A predicate from a stratum strictly below level.
		if level == 0 || r.Intn(3) == 0 {
			return []string{"e0", "e1"}[r.Intn(2)]
		}
		return fmt.Sprintf("i%d", r.Intn(level))
	}
	vars := []string{"X", "Y", "Z"}
	for level := 0; level < idbCount; level++ {
		head := fmt.Sprintf("i%d", level)
		for k := 0; k < rulesPer; k++ {
			// Body: 2-3 positive literals; maybe one negative over a
			// strictly lower predicate; all head vars covered.
			nPos := 2 + r.Intn(2)
			var body []string
			used := map[string]bool{}
			for j := 0; j < nPos; j++ {
				p := pred(level)
				v1 := vars[r.Intn(3)]
				v2 := vars[r.Intn(3)]
				used[v1], used[v2] = true, true
				// Positive same-stratum recursion occasionally.
				if j == 0 && level > 0 && r.Intn(4) == 0 {
					p = head
				}
				body = append(body, fmt.Sprintf("%s(%s, %s)", p, v1, v2))
			}
			if level > 0 && r.Intn(3) == 0 {
				// Negative literal over bound vars only.
				var bound []string
				for v := range used {
					bound = append(bound, v)
				}
				v1 := bound[r.Intn(len(bound))]
				v2 := bound[r.Intn(len(bound))]
				body = append(body, fmt.Sprintf("not %s(%s, %s)", pred(level), v1, v2))
			}
			// Head vars drawn from used ones.
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
	// One grouping predicate over the top IDB level.
	fmt.Fprintf(&sb, "grp(X, <Y>) <- i%d(X, Y).\n", idbCount-1)
	return sb.String()
}

// TestRandomProgramsDifferential cross-checks naive vs semi-naive vs the
// model checker on randomly generated admissible programs.
func TestRandomProgramsDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 60; trial++ {
		src := randProgram(r, 1+r.Intn(3), 1+r.Intn(3))
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		if err := ast.CheckWellFormed(p); err != nil {
			// The generator can produce unsafe rules (head var not in a
			// positive literal is prevented, but duplicates may degenerate);
			// skip those.
			continue
		}
		fine, err := layering.Stratify(p)
		if err != nil {
			continue
		}
		a, err := Eval(p, store.NewDB(), Options{Strategy: Naive})
		if err != nil {
			t.Fatalf("trial %d: naive: %v\n%s", trial, err, src)
		}
		b, err := Eval(p, store.NewDB(), Options{Strategy: SemiNaive})
		if err != nil {
			t.Fatalf("trial %d: semi-naive: %v\n%s", trial, err, src)
		}
		if !a.Equal(b) {
			t.Fatalf("trial %d: strategies disagree\nprogram:\n%s\nnaive:\n%s\nsemi-naive:\n%s",
				trial, src, a, b)
		}
		// Theorem 2: the coarse layering agrees too.
		c := store.NewDB()
		if err := evalGroups(fine.Coarse().Rules, c, Options{}); err != nil {
			t.Fatalf("trial %d: coarse eval: %v", trial, err)
		}
		if !a.Equal(c) {
			t.Fatalf("trial %d: layering dependence detected\n%s", trial, src)
		}
	}
}
