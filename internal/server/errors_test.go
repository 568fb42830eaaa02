package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ldl1"
)

// TestMapErrorTable pins the lderr → HTTP mapping for every typed error
// of the engine's taxonomy: the status code, the stable machine-readable
// code, and the detail fields each payload must carry.
func TestMapErrorTable(t *testing.T) {
	// The two caller mistakes a prepared Exec can make, produced by a real
	// handle so the table pins what the engine actually returns.
	eng, err := ldl1.New(familySrc)
	if err != nil {
		t.Fatal(err)
	}
	oneParam, err := eng.Prepare("ancestor(abe, W)")
	if err != nil {
		t.Fatal(err)
	}
	_, argCountErr := oneParam.Exec(ldl1.Sym("abe"), ldl1.Sym("bob"))
	_, argGroundErr := oneParam.Exec(ldl1.Variable("X"))

	cases := []struct {
		name   string
		err    error
		status int
		code   string
		check  func(t *testing.T, info ErrorInfo)
	}{
		{
			name: "parse_error", status: http.StatusBadRequest, code: "parse_error",
			err: &ldl1.ParseError{Line: 3, Col: 7, Msg: "unexpected token"},
			check: func(t *testing.T, info ErrorInfo) {
				if info.Line != 3 || info.Col != 7 {
					t.Errorf("line/col = %d/%d, want 3/7", info.Line, info.Col)
				}
			},
		},
		{
			name: "vet_error", status: http.StatusUnprocessableEntity, code: "vet_error",
			err: &ldl1.VetError{Diagnostics: []ldl1.Diagnostic{{Code: "LDL001", Severity: ldl1.SeverityError, Message: "unsafe"}}},
			check: func(t *testing.T, info ErrorInfo) {
				if len(info.Diagnostics) != 1 || info.Diagnostics[0].Code != "LDL001" {
					t.Errorf("diagnostics = %+v, want the LDL001 entry", info.Diagnostics)
				}
			},
		},
		{
			name: "instantiation_error", status: http.StatusUnprocessableEntity, code: "instantiation_error",
			err: &ldl1.InstantiationError{Builtin: "member", Literal: "member(X, S)"},
			check: func(t *testing.T, info ErrorInfo) {
				if info.Builtin != "member" {
					t.Errorf("builtin = %q, want member", info.Builtin)
				}
			},
		},
		{
			name: "limit_error", status: http.StatusRequestEntityTooLarge, code: "limit_error",
			err: &ldl1.LimitError{Limit: 42},
			check: func(t *testing.T, info ErrorInfo) {
				if info.Limit != 42 {
					t.Errorf("limit = %d, want 42", info.Limit)
				}
			},
		},
		{
			name: "mem_budget_error", status: http.StatusRequestEntityTooLarge, code: "mem_budget_error",
			err: &ldl1.MemBudgetError{Budget: 1 << 16},
			check: func(t *testing.T, info ErrorInfo) {
				if info.Budget != 1<<16 {
					t.Errorf("budget = %d, want %d", info.Budget, 1<<16)
				}
			},
		},
		{
			name: "deadline_exceeded", status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			err: ldl1.ErrDeadlineExceeded,
		},
		{
			name: "canceled", status: StatusClientClosedRequest, code: "canceled",
			err: ldl1.ErrCanceled,
		},
		{
			name: "bad_request/arg_count", status: http.StatusBadRequest, code: "bad_request",
			err: argCountErr,
		},
		{
			name: "bad_request/arg_not_ground", status: http.StatusBadRequest, code: "bad_request",
			err: argGroundErr,
		},
		{
			name: "internal", status: http.StatusInternalServerError, code: "internal",
			err: errors.New("boom"),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, wrap := range []struct {
				label string
				err   error
			}{
				{"bare", c.err},
				{"wrapped", fmt.Errorf("request failed: %w", c.err)},
			} {
				status, info := MapError(wrap.err)
				if status != c.status || info.Code != c.code {
					t.Errorf("%s: MapError = %d %q, want %d %q", wrap.label, status, info.Code, c.status, c.code)
				}
				if info.Message == "" {
					t.Errorf("%s: empty message", wrap.label)
				}
				if c.check != nil {
					c.check(t, info)
				}
			}
		})
	}
}

// TestErrorJSONShape pins the wire format: a single "error" object whose
// detail fields appear only when populated.
func TestErrorJSONShape(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, &ldl1.ParseError{Line: 2, Col: 5, Msg: "oops"})
	if rec.Code != 400 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var raw map[string]map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	e := raw["error"]
	if e == nil {
		t.Fatalf("no top-level error key: %s", rec.Body)
	}
	if e["code"] != "parse_error" || e["line"] != float64(2) || e["col"] != float64(5) {
		t.Fatalf("payload %v", e)
	}
	// omitempty: irrelevant detail fields are absent, not zero.
	for _, absent := range []string{"limit", "budget", "builtin", "diagnostics"} {
		if _, ok := e[absent]; ok {
			t.Errorf("parse_error payload carries %q", absent)
		}
	}

	rec = httptest.NewRecorder()
	writeError(rec, &ldl1.LimitError{Limit: 7})
	raw = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	e = raw["error"]
	if e["limit"] != float64(7) {
		t.Fatalf("limit payload %v", e)
	}
	for _, absent := range []string{"line", "col", "budget"} {
		if _, ok := e[absent]; ok {
			t.Errorf("limit_error payload carries %q", absent)
		}
	}
}

// errResp does a query expecting a structured error and returns it.
func errResp(t *testing.T, url, query string, override map[string]any) (int, ErrorInfo) {
	t.Helper()
	body := map[string]any{"query": query}
	for k, v := range override {
		body[k] = v
	}
	var eb errorBody
	st := post(t, url, body, &eb)
	return st, eb.Error
}

// TestErrorsEndToEnd triggers each mappable failure through the real HTTP
// surface and asserts the documented status and code arrive on the wire.
func TestErrorsEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	qURL := ts.URL + "/db/family/query"

	// Prepared Exec with the wrong number of arguments, or a non-ground
	// one, is the caller's mistake: 400, not 500.
	if err := s.Prepare("family", "anc", "ancestor(abe, W)"); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"abe", "bob"}, {"X"}} {
		st, e := errResp(t, ts.URL+"/db/family/prepared/anc", "", map[string]any{"args": args})
		if st != 400 || e.Code != "bad_request" || e.Message == "" {
			t.Errorf("exec args %v: %d %q %q", args, st, e.Code, e.Message)
		}
	}

	st, e := errResp(t, qURL, "ancestor(abe,", nil)
	if st != 400 || e.Code != "parse_error" || e.Col == 0 {
		t.Errorf("parse: %d %q col=%d", st, e.Code, e.Col)
	}

	st, e = errResp(t, qURL, "ancestor(X, Y)", map[string]any{"max_rows": 2})
	if st != 413 || e.Code != "limit_error" || e.Limit != 2 {
		t.Errorf("limit: %d %q limit=%d", st, e.Code, e.Limit)
	}

	st, e = errResp(t, qURL, "ancestor(X, Y)", map[string]any{"mem_budget": 16})
	if st != 413 || e.Code != "mem_budget_error" || e.Budget != 16 {
		t.Errorf("mem budget: %d %q budget=%d", st, e.Code, e.Budget)
	}

	// A query body the planner cannot order (Y is never bound).
	st, e = errResp(t, qURL, "parent(abe, X), X > Y", nil)
	if st != 422 || e.Code != "flounder_error" {
		t.Errorf("flounder: %d %q", st, e.Code)
	}

	st, e = errResp(t, ts.URL+"/db/nope/query", "p(X)", nil)
	if st != 404 || e.Code != "not_found" {
		t.Errorf("not found: %d %q", st, e.Code)
	}

	st, e = errResp(t, qURL, "", nil)
	if st != 400 || e.Code != "bad_request" {
		t.Errorf("missing query: %d %q", st, e.Code)
	}
}

// TestOversizeBody: a request body of 16 MiB is read; one byte more is
// 413 request_too_large, not a malformed request.
func TestOversizeBody(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	query := []byte(`{"query": "ancestor(abe, W)"}`)
	for _, c := range []struct {
		size, status int
		code         string
	}{{16 << 20, 200, ""}, {16<<20 + 1, 413, "request_too_large"}} {
		body := append(bytes.Repeat([]byte(" "), c.size-len(query)), query...)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/db/family/query", bytes.NewReader(body)))
		var eb errorBody
		_ = json.Unmarshal(rec.Body.Bytes(), &eb)
		if rec.Code != c.status || eb.Error.Code != c.code {
			t.Errorf("%d-byte body: %d %q, want %d %q", c.size, rec.Code, eb.Error.Code, c.status, c.code)
		}
		if c.code != "" && eb.Error.Limit != 16<<20 {
			t.Errorf("%d-byte body: limit %d, want %d", c.size, eb.Error.Limit, 16<<20)
		}
	}
}

// TestDeadlineEndToEnd runs an expensive self-join under a 1ms budget and
// expects the documented 504 deadline_exceeded.
func TestDeadlineEndToEnd(t *testing.T) {
	s := New(Config{})
	// A linear chain: ancestor holds ~n^2/2 pairs, and the self-join below
	// enumerates far too many tuples to finish within a millisecond.
	var b strings.Builder
	b.WriteString("ancestor(X, Y) <- parent(X, Y).\nancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).\n")
	for i := 0; i < 150; i++ {
		fmt.Fprintf(&b, "parent(n%d, n%d).\n", i, i+1)
	}
	if err := s.Load("chain", b.String()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	st, e := errResp(t, ts.URL+"/db/chain/query",
		"ancestor(X, Y), ancestor(Y, Z)", map[string]any{"deadline_ms": 1})
	if st != 504 || e.Code != "deadline_exceeded" {
		t.Errorf("deadline: %d %q", st, e.Code)
	}
}
