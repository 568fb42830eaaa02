package term_test

import (
	"math"
	"math/rand"
	"testing"

	"ldl1/internal/parser"
	"ldl1/internal/qcache"
	"ldl1/internal/term"
	"ldl1/internal/termgen"
)

// textRows pins the text of terms whose names or values the lexer would
// read as something else if they printed bare: every one prints to text
// that parses back to it.  An empty want is not pinned.
var textRows = []struct {
	t    term.Term
	want string
}{
	{term.Atom("john"), "john"},
	{term.Atom("élan"), "élan"},
	{term.Atom("X"), `'X'`},
	{term.Atom("_"), `'_'`},
	{term.Atom("_G1"), `'_G1'`},
	{term.Atom("a(b)"), `'a(b)'`},
	{term.Atom("12"), `'12'`},
	{term.Atom("[]"), `'[]'`},
	{term.EmptyList, "[]"},
	{term.Atom("q,a:r"), `'q,a:r'`},
	{term.Atom("John Smith"), `'John Smith'`},
	{term.Atom(""), `''`},
	{term.Atom("not"), `'not'`},
	{term.Atom("nota"), "nota"},
	{term.Atom("a'b"), `'a\'b'`},
	{term.Atom(`a"b\c`), `'a"b\\c'`},
	{term.Atom("ǅx"), `'ǅx'`},
	{term.Atom("a\nb\x00"), `'a\nb\x00'`},
	{term.Atom("\xffa"), `'\xffa'`},
	{term.Atom("%c"), `'%c'`},
	{term.Str("\xff\"x'"), `"\xff\"x'"`},
	{term.Int(math.MinInt64), "-9223372036854775808"},
	{term.Int(math.MaxInt64), "9223372036854775807"},
	{term.NewCompound("$set", term.Atom("a")), `'$set'(a)`},
	{term.NewCompound("$set"), `'$set'()`},
	{term.NewSet(term.Atom("a")), "{a}"},
	{term.NewCompound("f"), "f()"},
	{term.NewCompound("F", term.Atom("x")), `'F'(x)`},
	{term.NewCompound("not", term.Atom("x")), `'not'(x)`},
	{term.NewCompound(term.ConsFunctor, term.Atom("a")), `'$cons'(a)`},
	{term.NewCompound(term.ConsFunctor, term.Atom("a"), term.Atom("b")), "[a | b]"},
	{term.NewCompound("+", term.Int(1), term.Int(math.MinInt64)), "(1 + -9223372036854775808)"},
	{term.NewCompound("-", term.Int(1)), `'-'(1)`},
	{term.NewCompound("neg", term.Int(math.MinInt64)), "neg(-9223372036854775808)"},
	{term.NewSet(term.NewCompound("$set", term.Int(1)), term.NewSet(term.Int(1)), term.Atom("Y")), ""},
	{term.NewCompound("tuple", term.Atom("a"), term.NewCompound(term.ConsFunctor, term.Atom("X"), term.EmptyList)), "tuple(a, ['X'])"},
}

// TestTextRoundTrip: every pinned term prints as pinned and parses back to
// itself, and the rows together, and random terms from termgen, satisfy
// the properties of checkText.
func TestTextRoundTrip(t *testing.T) {
	var ts []term.Term
	for _, row := range textRows {
		got := string(term.AppendText(nil, row.t))
		if row.want != "" && got != row.want {
			t.Errorf("AppendText = %s, want %s", got, row.want)
		}
		if back, err := parser.ParseTerm(got); err != nil || !term.Equal(back, row.t) {
			t.Errorf("%s parses to %v, %v", got, back, err)
		}
		ts = append(ts, row.t)
	}
	if t.Failed() {
		return
	}
	checkText(t, ts)
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		checkText(t, []term.Term{termgen.Term(r, 3), termgen.Term(r, 2), termgen.Term(r, 1)})
	}
}

// FuzzTextRoundTrip drives termgen with the fuzzer's bytes, one byte per
// choice, and checks checkText on three terms.  The committed corpus is
// under testdata/fuzz/FuzzTextRoundTrip.
func FuzzTextRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rand.New(&byteSource{data})
		checkText(t, []term.Term{termgen.Term(r, 3), termgen.Term(r, 3), termgen.Term(r, 2)})
	})
}

// byteSource is a rand.Source reading one byte per draw (zero once the
// bytes run out): rand.Intn(n) for n up to 256 returns the byte mod n.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int64(b) << 32
}

func (s *byteSource) Seed(int64) {}

// checkText checks the one text form on ground terms ts, each against the
// twin its text parses to:
//   - the text parses back to an equal term, which prints the same text;
//   - two terms print alike ⇔ Equal ⇔ Compare is 0, and equal terms hash
//     alike;
//   - Compare is antisymmetric and transitive;
//   - qcache.ConstsKey is injective over the tuples of up to two terms.
func checkText(t *testing.T, ts []term.Term) {
	t.Helper()
	twins := make([]term.Term, len(ts))
	for i, x := range ts {
		text := string(term.AppendText(nil, x))
		if x.String() != text {
			t.Fatalf("String %s and AppendText %s differ", x, text)
		}
		y, err := parser.ParseTerm(text)
		if err != nil {
			t.Fatalf("%s does not parse: %v", text, err)
		}
		if !term.Equal(x, y) || y.String() != text {
			t.Fatalf("%s parses to %s", text, y)
		}
		twins[i] = y
	}
	all := append(append([]term.Term(nil), ts...), twins...)
	for _, a := range all {
		for _, b := range all {
			eq, cmp, same := term.Equal(a, b), term.Compare(a, b), a.String() == b.String()
			if eq != same || eq != (cmp == 0) {
				t.Fatalf("%s vs %s: Equal %v, Compare %d, same text %v", a, b, eq, cmp, same)
			}
			if eq && a.Hash() != b.Hash() {
				t.Fatalf("%s: equal terms hash %x and %x", a, a.Hash(), b.Hash())
			}
			if (cmp < 0) != (term.Compare(b, a) > 0) {
				t.Fatalf("%s vs %s: Compare not antisymmetric", a, b)
			}
			for _, c := range all {
				if cmp <= 0 && term.Compare(b, c) <= 0 && term.Compare(a, c) > 0 {
					t.Fatalf("Compare not transitive: %s, %s, %s", a, b, c)
				}
			}
		}
	}
	seen := map[string][]term.Term{}
	check := func(x ...term.Term) {
		k := qcache.ConstsKey(x)
		y, ok := seen[k]
		if !ok {
			seen[k] = x
			return
		}
		same := len(x) == len(y)
		for i := 0; same && i < len(x); i++ {
			same = term.Equal(x[i], y[i])
		}
		if !same {
			t.Fatalf("ConstsKey(%v) = ConstsKey(%v) = %q", x, y, k)
		}
	}
	for _, a := range all {
		check(a)
		for _, b := range all {
			check(a, b)
		}
	}
}
