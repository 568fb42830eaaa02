package parser

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseProgram: the parser never panics, and what it accepts prints
// (Program.String, Query.String) to text it accepts again and prints
// identically — the engine shows programs back to users in that form.  Seeds
// are the shipped programs; inputs that once failed are committed under
// testdata/fuzz/FuzzParseProgram and run with plain `go test`.
func FuzzParseProgram(f *testing.F) {
	files, err := filepath.Glob("../../programs/*.ldl")
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// Every term form in one small input, so mutations stay near the grammar.
	f.Add(`p("a\"b\\", -3, 1 - -1, -(2 * X), (a, b), [H | T], [], {}, {X, 1}, f(<Y>)) <- q(X, Y, H, T), not r(_, X), X /= Y + 1 / 2.
?- p(A, "s"), A >= -1.`)
	f.Fuzz(func(t *testing.T, src string) {
		unit, err := Parse(src)
		if err != nil {
			return
		}
		printed := unit.Program.String()
		again, err := ParseProgram(printed)
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\nsource:  %q\nprinted: %q", err, src, printed)
		}
		if got := again.String(); got != printed {
			t.Fatalf("program print is not a fixed point\nsource: %q\nfirst:  %q\nsecond: %q", src, printed, got)
		}
		for _, q := range unit.Queries {
			printed := q.String()
			again, err := ParseQuery(printed)
			if err != nil {
				t.Fatalf("printed query does not re-parse: %v\nsource:  %q\nprinted: %q", err, src, printed)
			}
			if got := again.String(); got != printed {
				t.Fatalf("query print is not a fixed point\nsource: %q\nfirst:  %q\nsecond: %q", src, printed, got)
			}
		}
	})
}
