package analyze

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden runs the analyzer over every testdata/*.ldl file and compares
// the formatted diagnostics against the matching .golden file, then checks
// that the files jointly exercise the entire diagnostic catalogue.
func TestGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.ldl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files: %v", err)
	}
	covered := map[string]bool{}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".ldl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			ds := Source(string(src), Options{File: filepath.ToSlash(file)})
			for _, d := range ds {
				covered[d.Code] = true
			}
			got := Format(ds)
			golden := strings.TrimSuffix(file, ".ldl") + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
	if *update {
		return
	}
	for _, ci := range codeTable {
		if !covered[ci.Code] {
			t.Errorf("no golden test emits %s (%s)", ci.Code, ci.Summary)
		}
	}
}

// TestJSONRoundTrip marshals diagnostics (including severity, position,
// and related information) through encoding/json and back.
func TestJSONRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "ldl006_not_admissible.ldl"))
	if err != nil {
		t.Fatal(err)
	}
	ds := Source(string(src), Options{File: "cycle.ldl"})
	if len(ds) == 0 {
		t.Fatal("expected diagnostics")
	}
	if len(ds[0].Related) == 0 {
		t.Fatalf("expected related positions on %v", ds[0])
	}
	b, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	var back []Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ds, back) {
		t.Errorf("round trip changed diagnostics:\n%v\n%v", ds, back)
	}
	var sev Severity
	if err := sev.UnmarshalJSON([]byte(`"bogus"`)); err == nil {
		t.Error("unmarshal of unknown severity should fail")
	}
}

// TestWitnessCycleDiagnostic pins the acceptance shape for LDL006: the
// canonical witness cycle in the message, one related entry per edge, each
// carrying the inducing rule's position.
func TestWitnessCycleDiagnostic(t *testing.T) {
	src := "r(1).\n" +
		"p(X, <Y>) <- q(X, Y).\n" +
		"q(X, Y) <- p(X, Y), not r(Y).\n"
	ds := Source(src, Options{File: "w.ldl"})
	var d *Diagnostic
	for i := range ds {
		if ds[i].Code == CodeNotAdmiss {
			d = &ds[i]
		}
	}
	if d == nil {
		t.Fatalf("no LDL006 in %v", ds)
	}
	if !strings.Contains(d.Message, "p -> q -> p") {
		t.Errorf("message lacks canonical cycle: %s", d.Message)
	}
	if len(d.Related) != 2 {
		t.Fatalf("want 2 related edges, got %v", d.Related)
	}
	if d.Related[0].Pos.Line != 2 || d.Related[1].Pos.Line != 3 {
		t.Errorf("related positions should name the inducing rules: %v", d.Related)
	}
	if d.Pos.Line != 2 {
		t.Errorf("diagnostic should anchor on the strict edge's rule, got %v", d.Pos)
	}
}

// TestQueriesAnalyzed checks that queries get mode analysis (floundering)
// but not safety analysis (free query variables are outputs).
func TestQueriesAnalyzed(t *testing.T) {
	ds := Source("d(1).\n?- union(A, B, S).\n", Options{})
	found := false
	for _, d := range ds {
		if d.Code == CodeFlounder {
			found = true
		}
		if d.Code == CodeUnsafeHead || d.Code == CodeSingleton {
			t.Errorf("query variables must not trigger %s: %v", d.Code, d)
		}
	}
	if !found {
		t.Errorf("floundering query not reported: %v", ds)
	}
}

// TestEqualityBindingAccepted pins the safety fix: a head variable bound
// only via = to a ground term (or to a bound variable chain) is safe.
func TestEqualityBindingAccepted(t *testing.T) {
	for _, src := range []string{
		"p(X) <- X = 5.\n",
		"d(1).\np(Y) <- d(X), Y = X + 1.\n",
		"s(X) <- X = {1, 2}.\n",
	} {
		for _, d := range Source(src, Options{}) {
			if d.Severity == Error {
				t.Errorf("%q: unexpected error %v", src, d)
			}
		}
	}
}

// TestSetPatternRejected pins the companion fix: a set pattern cannot bind
// its variables, so it is an unsafe binding source (error when the head
// needs it, warning when merely dead).
func TestSetPatternRejected(t *testing.T) {
	ds := Source("d(1).\np(X) <- d({X}).\n", Options{})
	if ErrorCount(ds) == 0 {
		t.Errorf("head variable bound only by a set pattern must be an error: %v", ds)
	}
	ds = Source("d(1).\ne(1).\np(X) <- d(X), e({Y}).\n", Options{})
	found := false
	for _, d := range ds {
		if d.Code == CodeSetPattern {
			found = true
		}
	}
	if !found {
		t.Errorf("dead set pattern not warned: %v", ds)
	}
}

// TestKnownPreds checks that KnownPreds suppresses undefined-predicate
// warnings for relations provided outside the unit.
func TestKnownPreds(t *testing.T) {
	src := "d(1).\np(X) <- edb(X).\n"
	if ds := Source(src, Options{}); len(ds) == 0 {
		t.Fatal("expected an LDL102 for edb/1")
	}
	ds := Source(src, Options{KnownPreds: map[string]bool{"edb": true}})
	for _, d := range ds {
		if d.Code == CodeUndefined {
			t.Errorf("KnownPreds should define edb: %v", d)
		}
	}
}

// TestLibraryModeSkipsUndefined: a unit with no facts references relations
// loaded elsewhere; undefined-predicate warnings would be noise.
func TestLibraryModeSkipsUndefined(t *testing.T) {
	for _, d := range Source("p(X) <- q(X).\n", Options{}) {
		if d.Code == CodeUndefined {
			t.Errorf("library unit should not warn undefined: %v", d)
		}
	}
}

// TestGoSource extracts embedded LDL1 from Go raw strings and offsets
// positions into the Go file.
func TestGoSource(t *testing.T) {
	goSrc := `package demo

const program = ` + "`" + `
d(1).
big(X) <- d(Y), Y < X.
` + "`" + `

const notLDL = "just a plain string"
`
	ds, err := GoSource("demo.go", []byte(goSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var found *Diagnostic
	for i := range ds {
		if ds[i].Code == CodeUnsafeHead {
			found = &ds[i]
		}
	}
	if found == nil {
		t.Fatalf("unsafe rule in embedded program not found: %v", ds)
	}
	// The raw string opens on file line 3, so LDL line 3 (the rule) is Go
	// file line 5.
	if found.Pos.Line != 5 {
		t.Errorf("position not offset into the Go file: %v", found.Pos)
	}
	if found.File != "demo.go" {
		t.Errorf("File = %q, want demo.go", found.File)
	}
	if _, err := GoSource("broken.go", []byte("not go at all"), Options{}); err == nil {
		t.Error("expected an error for a Go file that does not parse")
	}
}

// TestCleanProgramsSweep asserts the repository's own example programs
// stay free of error-severity diagnostics (warnings are reported but
// allowed: some examples genuinely contain cartesian joins or unbounded
// recursion, which is what WithLimit is for).
func TestCleanProgramsSweep(t *testing.T) {
	ldl, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.ldl"))
	if err != nil || len(ldl) == 0 {
		t.Fatalf("no programs found: %v", err)
	}
	for _, file := range ldl {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ds := Source(string(data), Options{File: file})
		if n := ErrorCount(ds); n > 0 {
			t.Errorf("%s: %d error diagnostics:\n%s", file, n, Format(ds))
		}
		for _, d := range ds {
			if d.Code == CodeSingleton {
				t.Errorf("%s: singleton variables should be cleaned up:\n%s", file, d)
			}
		}
	}

	var goFiles []string
	root := filepath.Join("..", "..", "examples")
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".go") {
			goFiles = append(goFiles, path)
		}
		return err
	})
	if err != nil || len(goFiles) == 0 {
		t.Fatalf("no example Go files found: %v", err)
	}
	for _, file := range goFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := GoSource(file, data, Options{})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if n := ErrorCount(ds); n > 0 {
			t.Errorf("%s: %d error diagnostics:\n%s", file, n, Format(ds))
		}
	}
}
