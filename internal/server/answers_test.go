package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ldl1"
	"ldl1/internal/term"
)

// queryResponse is the answer table as encoding/json sees it.  The server
// writes answers with appendAnswers; this type and answersJSON are the
// reference it is compared with, and the shape tests decode responses into.
type queryResponse struct {
	Vars []string   `json:"vars"`
	Rows [][]string `json:"rows"`
	// Count duplicates len(rows) so scripts can jq .count.
	Count int `json:"count"`
}

// rows is an answer table written out row by row, for the writer's cases
// no query answers (non-ground terms, columns of any name).
type rows [][]ldl1.Term

func (r rows) Len() int              { return len(r) }
func (r rows) Row(i int) []ldl1.Term { return r[i] }

// answersJSON renders an answer table; unbound columns (query variables a
// solution does not constrain) render as "_".
func answersJSON(vars []string, a answerRows) queryResponse {
	resp := queryResponse{Vars: vars, Rows: make([][]string, 0, a.Len())}
	for i := range a.Len() {
		row := a.Row(i)
		out := make([]string, len(row))
		for i, t := range row {
			if t == nil {
				out[i] = "_"
			} else {
				out[i] = t.String()
			}
		}
		resp.Rows = append(resp.Rows, out)
	}
	resp.Count = len(resp.Rows)
	return resp
}

// encoded is the reference response body for a.
func encoded(t testing.TB, vars []string, a answerRows) []byte {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(answersJSON(vars, a)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkAnswerBytes(t testing.TB, name string, vars []string, a answerRows) {
	t.Helper()
	got, _ := appendAnswers(nil, nil, vars, a)
	if want := encoded(t, vars, a); !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %q\nwant %q", name, got, want)
	}
}

// TestAnswerWriterMatchesEncoder pins the wire bytes of an answer table:
// appendAnswers writes exactly what encoding/json writes for answersJSON,
// over every term kind and every escape class of the encoder.
func TestAnswerWriterMatchesEncoder(t *testing.T) {
	a, b := term.Atom("a"), term.Atom("b")
	kinds := []ldl1.Term{
		a, term.EmptyList, term.Int(-42), term.Int(7), term.Str(`say "hi"\n`), term.Var("X"),
		term.NewCompound("f", a, term.Int(1)), term.NewCompound("g"),
		term.NewList(a, b), term.Cons(a, term.Var("T")),
		term.NewCompound("$set", a, term.Var("Y")), term.NewCompound("+", term.Var("X"), term.Int(1)),
		term.NewGroup(term.Var("Y")), term.EmptySet,
		term.NewSet(term.Int(1), term.NewSet(a), term.NewCompound("f", b), term.Str("s")),
	}
	escapes := []string{
		`<a href="x">&amp;</a>`, "\x00\x01\x07\b\f\n\r\t\x1b\x1f\x7f", `back\slash "quoted"`,
		"\xff\xfe", "ok\xe2\x82", "\xed\xa0\x80", "\u2028 and \u2029", "é ☃ 😀", "",
	}
	var escRow []ldl1.Term
	for _, s := range escapes {
		escRow = append(escRow, term.Atom(s), term.Str(s))
	}
	cases := []struct {
		name string
		vars []string
		rows rows
	}{
		{"zero rows", []string{"X"}, nil},
		{"zero rows, empty slice", []string{"X"}, rows{}},
		{"zero vars", []string{}, rows{{}}},
		{"unbound columns", []string{"X", "Y", "Z"}, rows{{nil, a, nil}, {a, nil, b}, {nil, nil, nil}}},
		{"every term kind", []string{"T"}, rows{kinds}},
		{"term per row", []string{"T"}, func() (rs rows) {
			for _, k := range kinds {
				rs = append(rs, []ldl1.Term{k})
			}
			return rs
		}()},
		{"escapes", escapes, rows{escRow, {term.NewSet(escRow...)}}},
	}
	for _, c := range cases {
		checkAnswerBytes(t, c.name, c.vars, c.rows)
	}
}

// TestServedAnswerBytes: the body a query handler sends is the reference
// encoding of the answers, with the JSON content type.
func TestServedAnswerBytes(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	want, err := s.lookup("family").eng.Query("ancestor(abe, W)")
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/db/family/query", strings.NewReader(`{"query":"ancestor(abe, W)"}`)))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, encoded(t, want.Vars, want)) {
		t.Fatalf("body %q, want %q", got, encoded(t, want.Vars, want))
	}
}

// FuzzAnswerJSON: for any text in atoms, strings, functors, set elements and
// column names, the answer writer and the encoder agree byte for byte.
func FuzzAnswerJSON(f *testing.F) {
	f.Add("X", "abe", int64(1))
	f.Add("<&>", "\u2028\x00", int64(-3))
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64) {
		checkAnswerBytes(t, "fuzz", []string{s1, s2, "Z"}, rows{
			{term.Atom(s1), term.Str(s2), nil},
			{term.Int(n), term.NewSet(term.Atom(s1), term.Atom(s2), term.Int(n)), term.NewCompound(s1, term.Str(s1))},
			{term.NewList(term.Atom(s2)), nil, term.NewCompound(s2)},
		})
	})
}

// treeSrc is the §6 running example over a complete binary family tree of
// the given depth (the children of ni are n2i and n2i+1).
func treeSrc(depth int) string {
	var b strings.Builder
	b.WriteString(`a(X, Y) <- p(X, Y).
a(X, Y) <- a(X, Z), a(Z, Y).
sg(X, Y) <- siblings(X, Y).
sg(X, Y) <- p(Z1, X), sg(Z1, Z2), p(Z2, Y).
hasdesc(X) <- a(X, _).
young(X, <Y>) <- sg(X, Y), not hasdesc(X).
`)
	for i := 1; i < 1<<depth; i++ {
		fmt.Fprintf(&b, "p(n%d, n%d). p(n%d, n%d). siblings(n%d, n%d). siblings(n%d, n%d).\n",
			i, 2*i, i, 2*i+1, 2*i, 2*i+1, 2*i+1, 2*i)
	}
	return b.String()
}

// discard is a ResponseWriter that keeps nothing of the body but its size.
type discard struct {
	h http.Header
	n int
}

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) WriteHeader(int)             {}
func (w *discard) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// servedHitCeiling bounds the objects a served answer-cache hit allocates:
// measured plus a quarter.  Measured here 38, and 39 when every read cut a
// slice of row headers from the cached table.
const servedHitCeiling = 47.5

// TestServedHitAllocsFlat: a prepared-exec answer-cache hit served through
// ServeHTTP decodes its request from a pooled buffer and renders its rows
// into one, read in place, so what it allocates does not depend on the
// size of the answer: one row holding a 511-element set and 254 rows cost
// the same number of objects, at most servedHitCeiling.  The wire-side
// twin of the root TestCacheHitAllocsFlat.
func TestServedHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(Config{})
	if err := s.Load("tree", treeSrc(9)); err != nil {
		t.Fatal(err)
	}
	hit := func(name, query, arg string, rows int) float64 {
		if err := s.Prepare("tree", name, query); err != nil {
			t.Fatal(err)
		}
		body := `{"args":["` + arg + `"]}`
		serve := func() *discard {
			w := &discard{h: http.Header{}}
			s.ServeHTTP(w, httptest.NewRequest("POST", "/db/tree/prepared/"+name, strings.NewReader(body)))
			return w
		}
		var q queryResponse
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/db/tree/prepared/"+name, strings.NewReader(body)))
		if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil || q.Count != rows {
			t.Fatalf("%s(%s): %d rows, %v; want %d", name, arg, q.Count, err, rows)
		}
		if w := serve(); w.n != rec.Body.Len() {
			t.Fatalf("%s(%s): a hit wrote %d bytes, the first read %d", name, arg, w.n, rec.Body.Len())
		}
		return testing.AllocsPerRun(100, func() { serve() })
	}
	young := hit("young", "young(n1, S)", "n700", 1)
	desc := hit("desc", "a(n1, W)", "n5", 254)
	t.Logf("allocs per served cache hit: %.0f (1 row, a 511-element set), %.0f (254 rows)", young, desc)
	if young != desc {
		t.Errorf("a served hit of 254 rows allocates %.0f objects, of one 511-element set %.0f: want equal", desc, young)
	}
	if desc > servedHitCeiling {
		t.Errorf("a served hit allocates %.0f objects, ceiling %.1f", desc, servedHitCeiling)
	}
}
