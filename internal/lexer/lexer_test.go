package lexer

import (
	"testing"
)

func types(t *testing.T, src string) []Type {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]Type, len(toks))
	for i, tok := range toks {
		out[i] = tok.Type
	}
	return out
}

func eq(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBasicRule(t *testing.T) {
	got := types(t, "p(X) <- q(X, a).")
	want := []Type{Ident, LParen, Variable, RParen, Arrow, Ident, LParen, Variable, Comma, Ident, RParen, Dot}
	if !eq(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestOperators(t *testing.T) {
	cases := map[string][]Type{
		"<-":      {Arrow},
		"<":       {Less},
		"<=":      {Leq},
		"=<":      {Leq},
		">":       {Greater},
		">=":      {Geq},
		"=":       {Eq},
		"/=":      {Neq},
		"\\=":     {Neq},
		"!=":      {Neq},
		"/":       {Slash},
		"+ - * /": {Plus, Minus, Star, Slash},
		"?-":      {QueryTok},
		"? ":      {QueryTok},
		"<X>":     {Less, Variable, Greater},
		"<<X>>":   {Less, Less, Variable, Greater, Greater},
		"~p":      {Not, Ident},
		"¬p":      {Not, Ident},
		"not p":   {Not, Ident},
		"notx":    {Ident}, // identifier, not the keyword
		"{1, {}}": {LBrace, Int, Comma, LBrace, RBrace, RBrace},
		"X<-Y":    {Variable, Arrow, Variable}, // greedy <- wins
		"X < -1":  {Variable, Less, Minus, Int},
	}
	for src, want := range cases {
		if got := types(t, src); !eq(got, want) {
			t.Errorf("%q: got %v want %v", src, got, want)
		}
	}
}

func TestVariablesAndIdents(t *testing.T) {
	toks, err := Tokenize("Xyz _foo abc_def Abc9")
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []Type{Variable, Variable, Ident, Variable}
	wantText := []string{"Xyz", "_foo", "abc_def", "Abc9"}
	for i, tok := range toks {
		if tok.Type != wantTypes[i] || tok.Text != wantText[i] {
			t.Errorf("token %d = %v %q", i, tok.Type, tok.Text)
		}
	}
}

func TestStrings(t *testing.T) {
	toks, err := Tokenize(`p("hello\nworld", "a\"b", "t\\ab", "\x00\u00e9\r")`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Text != "hello\nworld" {
		t.Errorf("escape n: %q", toks[2].Text)
	}
	if toks[4].Text != `a"b` {
		t.Errorf("escape quote: %q", toks[4].Text)
	}
	if toks[6].Text != `t\ab` {
		t.Errorf("escape backslash: %q", toks[6].Text)
	}
	// Every escape strconv.Quote writes (term.Str prints with it) reads back.
	if toks[8].Text != "\x00é\r" {
		t.Errorf("go escapes: %q", toks[8].Text)
	}
	for _, bad := range []string{`"unterminated`, `"bad \q escape"`, "\"new\nline\"", `"trail\`} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("expected error for %q", bad)
		}
	}
}

func TestComments(t *testing.T) {
	got := types(t, `
		p(a). % a comment <- with tokens
		# another comment
		q(b).
	`)
	want := []Type{Ident, LParen, Ident, RParen, Dot, Ident, LParen, Ident, RParen, Dot}
	if !eq(got, want) {
		t.Fatalf("got %v", got)
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("p(a).\n  q(b).")
	if err != nil {
		t.Fatal(err)
	}
	last := toks[len(toks)-1]
	if last.Line != 2 {
		t.Errorf("last token line = %d", last.Line)
	}
	q := toks[5]
	if q.Text != "q" || q.Line != 2 || q.Col != 3 {
		t.Errorf("q position = %d:%d", q.Line, q.Col)
	}
}

func TestLexErrors(t *testing.T) {
	for _, bad := range []string{"@", "p(`)", "\\x"} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("expected lex error for %q", bad)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("error type for %q: %T", bad, err)
		}
	}
}

func TestTokenAndTypeString(t *testing.T) {
	toks, _ := Tokenize("p")
	if s := toks[0].String(); s == "" {
		t.Error("token String empty")
	}
	seen := map[string]bool{}
	for ty := EOF; ty <= QueryTok; ty++ {
		s := ty.String()
		if s == "" || seen[s] {
			t.Errorf("type %d has empty or duplicate String %q", ty, s)
		}
		seen[s] = true
	}
}
