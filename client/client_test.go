package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ldl1"
	"ldl1/internal/server"
)

const familySrc = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	parent(abe, bob). parent(bob, carl). parent(carl, dee).
`

func newClient(t *testing.T, cfg server.Config) *Client {
	t.Helper()
	s := server.New(cfg)
	if err := s.Load("family", familySrc); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return New(ts.URL, ts.Client())
}

func TestClientRoundTrip(t *testing.T) {
	c := newClient(t, server.Config{AllowAdmin: true})
	ctx := context.Background()

	res, err := c.Query(ctx, "family", "ancestor(abe, W)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || len(res.Rows) != 3 || len(res.Vars) != 1 {
		t.Fatalf("query %+v, want 3 rows over 1 var", res)
	}

	up, err := c.Assert(ctx, "family", "parent(dee, eve).")
	if err != nil {
		t.Fatal(err)
	}
	if up.Inserted < 2 {
		t.Fatalf("assert %+v, want >= 2 inserted", up)
	}
	res, err = c.Query(ctx, "family", "ancestor(abe, W)", nil)
	if err != nil || res.Count != 4 {
		t.Fatalf("re-query: %v, count %d want 4", err, res.Count)
	}

	up, err = c.Tx(ctx, "family", "parent(eve, fay).", "parent(dee, eve).")
	if err != nil {
		t.Fatal(err)
	}
	if up.Inserted == 0 || up.Deleted == 0 {
		t.Fatalf("tx %+v, want both sides nonzero", up)
	}
	if _, err := c.Retract(ctx, "family", "parent(eve, fay)."); err != nil {
		t.Fatal(err)
	}

	// Prepared define + exec through the client.
	if err := c.Prepare(ctx, "family", "anc", "ancestor(abe, W)"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec(ctx, "family", "anc", []string{"bob"}, nil)
	if err != nil || res.Count != 2 {
		t.Fatalf("exec anc(bob): %v, count %d want 2", err, res.Count)
	}

	// Admin load + drop + health.
	if err := c.Load(ctx, "links", "edge(a, b)."); err != nil {
		t.Fatal(err)
	}
	dbs, err := c.Health(ctx)
	if err != nil || len(dbs) != 2 {
		t.Fatalf("health: %v, dbs %v", err, dbs)
	}
	if err := c.Drop(ctx, "links"); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fam, ok := st.Databases["family"]
	if !ok || fam.Reads == 0 || fam.Writes == 0 || fam.ModelFacts == 0 {
		t.Fatalf("stats %+v", st)
	}
	if fam.Eval["derived"] == 0 {
		t.Fatalf("eval stats dead: %+v", fam.Eval)
	}
}

// TestClientErrorTaxonomy proves the server's structured errors
// reconstruct the engine taxonomy across the wire: errors.Is and
// errors.As branch exactly as they would against an in-process engine.
func TestClientErrorTaxonomy(t *testing.T) {
	c := newClient(t, server.Config{AllowAdmin: true})
	ctx := context.Background()

	_, err := c.Query(ctx, "family", "ancestor(abe,", nil)
	var pe *ldl1.ParseError
	if !errors.As(err, &pe) || pe.Col == 0 {
		t.Fatalf("parse error: %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != "parse_error" {
		t.Fatalf("APIError envelope: %v", err)
	}

	// Bad prepared-Exec arguments are the caller's mistake: 400 bad_request.
	if err := c.Prepare(ctx, "family", "anc", "ancestor(abe, W)"); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"abe", "bob"}, {"X"}} {
		_, err = c.Exec(ctx, "family", "anc", args, nil)
		if !errors.As(err, &ae) || ae.Status != 400 || ae.Code != "bad_request" {
			t.Fatalf("exec args %v: %v", args, err)
		}
	}

	_, err = c.Query(ctx, "family", "ancestor(X, Y)", &ReadOpts{MaxRows: 2})
	var le *ldl1.LimitError
	if !errors.As(err, &le) || le.Limit != 2 {
		t.Fatalf("limit error: %v", err)
	}

	_, err = c.Query(ctx, "family", "ancestor(X, Y)", &ReadOpts{MemBudget: 16})
	var me *ldl1.MemBudgetError
	if !errors.As(err, &me) || me.Budget != 16 {
		t.Fatalf("mem budget error: %v", err)
	}

	err = c.Load(ctx, "bad", "p(X) <- not q(X).")
	var ve *ldl1.VetError
	if !errors.As(err, &ve) || len(ve.Diagnostics) == 0 {
		t.Fatalf("vet error: %v", err)
	}

	_, err = c.Query(ctx, "nope", "p(X)", nil)
	if !errors.As(err, &ae) || ae.Status != 404 || ae.Code != "not_found" {
		t.Fatalf("not found: %v", err)
	}
	// Server-level codes have no engine twin: Unwrap yields nothing.
	if ae.Unwrap() != nil {
		t.Fatalf("not_found unwrapped to %v", ae.Unwrap())
	}
}

// TestRequestBodiesUnchanged: the typed request bodies encode to the bytes
// of the map[string]any bodies the client used to send, sorted keys, HTML
// escaping and omitted defaults included.
func TestRequestBodiesUnchanged(t *testing.T) {
	var got []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c, ctx := New(ts.URL, ts.Client()), context.Background()
	// readMap is the map body of a query or an exec.
	readMap := func(q string, args []string, o *ReadOpts) map[string]any {
		body := map[string]any{}
		if q != "" {
			body["query"] = q
		}
		if len(args) > 0 {
			body["args"] = args
		}
		if o != nil {
			if o.Deadline > 0 {
				body["deadline_ms"] = o.Deadline.Milliseconds()
			}
			if o.MaxRows > 0 {
				body["max_rows"] = o.MaxRows
			}
			if o.MemBudget > 0 {
				body["mem_budget"] = o.MemBudget
			}
		}
		return body
	}
	q, facts := `p(X, "<&>"), q(X, 'y')`, "p(a). p(\"<b> &  \")."
	for _, o := range []*ReadOpts{nil, {}, {Deadline: 1500 * time.Millisecond, MaxRows: 10, MemBudget: 1 << 20}, {MaxRows: -1, MemBudget: -5}} {
		for _, args := range [][]string{nil, {}, {"abe", `"s<t>"`}} {
			_, _ = c.Exec(ctx, "db", "h", args, o)
			checkBody(t, "exec", got, readMap("", args, o))
		}
		_, _ = c.Query(ctx, "db", q, o)
		checkBody(t, "query", got, readMap(q, nil, o))
	}
	_, _ = c.Assert(ctx, "db", facts)
	checkBody(t, "assert", got, map[string]any{"facts": facts})
	_, _ = c.Retract(ctx, "db", "")
	checkBody(t, "retract", got, map[string]any{"facts": ""})
	_, _ = c.Tx(ctx, "db", facts, "")
	checkBody(t, "tx", got, map[string]any{"assert": facts, "retract": ""})
	_ = c.Load(ctx, "db", facts)
	checkBody(t, "load", got, map[string]any{"program": facts})
	_ = c.Prepare(ctx, "db", "h", q)
	checkBody(t, "prepare", got, map[string]any{"query": q})
}

func checkBody(t *testing.T, what string, got []byte, want map[string]any) {
	t.Helper()
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("%s body %s, want %s", what, got, data)
	}
}

func TestClientUnwrapSentinels(t *testing.T) {
	// The context sentinels reconstruct from codes alone (they are hard to
	// trigger deterministically over a real wire).
	for _, c := range []struct {
		code string
		want error
	}{
		{"deadline_exceeded", ldl1.ErrDeadlineExceeded},
		{"canceled", ldl1.ErrCanceled},
	} {
		ae := &APIError{Status: 504, Code: c.code, Message: c.code}
		if !errors.Is(ae, c.want) {
			t.Errorf("%s: errors.Is failed", c.code)
		}
	}
	ae := &APIError{Status: 422, Code: "instantiation_error", Builtin: "member", Message: "member(X, S)"}
	var ie *ldl1.InstantiationError
	if !errors.As(ae, &ie) || ie.Builtin != "member" {
		t.Errorf("instantiation_error: errors.As failed: %v", ae.Unwrap())
	}
	if !errors.Is(ae, ldl1.ErrInstantiation) {
		t.Error("instantiation_error: sentinel Is failed")
	}
}
