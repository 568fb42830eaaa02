package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ldl1"
)

const familySrc = `
	ancestor(X, Y) <- parent(X, Y).
	ancestor(X, Y) <- parent(X, Z), ancestor(Z, Y).
	parent(abe, bob). parent(bob, carl). parent(carl, dee).
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if err := s.Load("family", familySrc); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends a JSON body and decodes the JSON response, returning the
// status code.
func post(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func TestQueryAssertRequery(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var q queryResponse
	if st := post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(abe, W)"}, &q); st != 200 {
		t.Fatalf("query status %d", st)
	}
	if q.Count != 3 || len(q.Rows) != 3 || len(q.Vars) != 1 {
		t.Fatalf("query response %+v, want 3 rows over 1 var", q)
	}

	var u updateResponse
	if st := post(t, ts.URL+"/db/family/assert", factsRequest{Facts: "parent(dee, eve)."}, &u); st != 200 {
		t.Fatalf("assert status %d", st)
	}
	if u.Inserted < 2 { // parent(dee,eve) plus derived ancestors
		t.Fatalf("assert inserted %d, want >= 2", u.Inserted)
	}

	if st := post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(abe, W)"}, &q); st != 200 {
		t.Fatalf("re-query status %d", st)
	}
	if q.Count != 4 {
		t.Fatalf("after assert: %d rows, want 4: %v", q.Count, q.Rows)
	}
}

func TestTxAtomicAndRetract(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var u updateResponse
	st := post(t, ts.URL+"/db/family/tx",
		updateRequest{Assert: "parent(dee, eve).", Retract: "parent(abe, bob)."}, &u)
	if st != 200 {
		t.Fatalf("tx status %d", st)
	}
	if u.Inserted == 0 || u.Deleted == 0 {
		t.Fatalf("tx result %+v, want both sides nonzero", u)
	}

	var q queryResponse
	post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(abe, W)"}, &q)
	if q.Count != 0 {
		t.Fatalf("ancestor(abe, W) after retracting parent(abe, bob): %d rows, want 0", q.Count)
	}
	post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(bob, eve)"}, &q)
	if q.Count != 1 {
		t.Fatalf("ancestor(bob, eve) after tx: %d rows, want 1", q.Count)
	}

	// Empty transaction is a bad request with a stable code.
	var eb errorBody
	if st := post(t, ts.URL+"/db/family/tx", updateRequest{}, &eb); st != 400 || eb.Error.Code != "bad_request" {
		t.Fatalf("empty tx: status %d code %q", st, eb.Error.Code)
	}
}

// TestNonGroundFactsRejected: a fact in a write body is ground (§7), as a
// program's facts are; a variable is a positioned 400 parse_error on every
// write endpoint, and the transaction does not happen.
func TestNonGroundFactsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for path, body := range map[string]any{
		"assert":  factsRequest{Facts: "parent(dee, eve).\nparent(X, Y)."},
		"retract": factsRequest{Facts: "parent(abe, bob).\nparent(X, bob)."},
		"tx":      updateRequest{Assert: "parent(dee, eve).", Retract: "parent(abe, bob).\nparent(X, bob)."},
	} {
		var eb errorBody
		if st := post(t, ts.URL+"/db/family/"+path, body, &eb); st != 400 || eb.Error.Code != "parse_error" || eb.Error.Line != 2 {
			t.Errorf("%s: status %d, error %+v; want 400 parse_error at line 2", path, st, eb.Error)
		}
	}
	var q queryResponse
	post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(X, Y)"}, &q)
	if q.Count != 6 {
		t.Fatalf("after rejected writes: %d ancestor facts, want the 6 loaded ones: %v", q.Count, q.Rows)
	}
}

func TestPreparedEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{AllowAdmin: true})

	// Define over HTTP (admin), list, then exec with args.
	if st := doJSON(t, http.MethodPut, ts.URL+"/db/family/prepared/anc", prepareRequest{Query: "ancestor(abe, W)"}, nil); st != 200 {
		t.Fatalf("prepared define status %d", st)
	}
	var list struct {
		Prepared map[string]struct {
			Query   string `json:"query"`
			NumArgs int    `json:"num_args"`
		} `json:"prepared"`
	}
	if st := doJSON(t, http.MethodGet, ts.URL+"/db/family/prepared", nil, &list); st != 200 {
		t.Fatalf("prepared list status %d", st)
	}
	if p, ok := list.Prepared["anc"]; !ok || p.NumArgs != 1 {
		t.Fatalf("prepared list %+v, want anc with 1 arg", list)
	}

	var q queryResponse
	if st := post(t, ts.URL+"/db/family/prepared/anc", execRequest{Args: []string{"bob"}}, &q); st != 200 {
		t.Fatalf("prepared exec status %d", st)
	}
	if q.Count != 2 {
		t.Fatalf("anc(bob): %d rows, want 2: %v", q.Count, q.Rows)
	}
	// No args re-runs the prepared constants.
	if st := post(t, ts.URL+"/db/family/prepared/anc", execRequest{}, &q); st != 200 || q.Count != 3 {
		t.Fatalf("anc(): status %d count %d, want 200/3", st, q.Count)
	}

	// Server-side Prepare API too.
	if err := s.Prepare("family", "parents", "parent(P, C)"); err != nil {
		t.Fatal(err)
	}
	if st := post(t, ts.URL+"/db/family/prepared/parents", execRequest{}, &q); st != 200 || q.Count != 3 {
		t.Fatalf("parents(): status %d count %d, want 200/3", st, q.Count)
	}

	var eb errorBody
	if st := post(t, ts.URL+"/db/family/prepared/nope", execRequest{}, &eb); st != 404 || eb.Error.Code != "not_found" {
		t.Fatalf("unknown prepared: status %d code %q", st, eb.Error.Code)
	}
}

func TestAdminEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowAdmin: true})

	// Load a second database over HTTP, query it, then drop it.
	if st := doJSON(t, http.MethodPut, ts.URL+"/db/links", loadRequest{Program: "edge(a, b). edge(b, c)."}, nil); st != 200 {
		t.Fatalf("load status %d", st)
	}
	var q queryResponse
	if st := post(t, ts.URL+"/db/links/query", queryRequest{Query: "edge(a, X)"}, &q); st != 200 || q.Count != 1 {
		t.Fatalf("query loaded db: status %d count %d", st, q.Count)
	}
	var names struct {
		Databases []string `json:"databases"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/db", nil, &names)
	if len(names.Databases) != 2 {
		t.Fatalf("databases %v, want 2", names.Databases)
	}
	if st := doJSON(t, http.MethodDelete, ts.URL+"/db/links", nil, nil); st != 200 {
		t.Fatalf("drop status %d", st)
	}
	var eb errorBody
	if st := post(t, ts.URL+"/db/links/query", queryRequest{Query: "edge(a, X)"}, &eb); st != 404 || eb.Error.Code != "not_found" {
		t.Fatalf("dropped db query: status %d code %q", st, eb.Error.Code)
	}

	// Vet admission: an unsafe program is rejected with 422 vet_error.
	if st := doJSON(t, http.MethodPut, ts.URL+"/db/bad", loadRequest{Program: "p(X) <- not q(X)."}, &eb); st != 422 || eb.Error.Code != "vet_error" {
		t.Fatalf("unsafe load: status %d code %q", st, eb.Error.Code)
	}
	if len(eb.Error.Diagnostics) == 0 {
		t.Fatal("vet_error carried no diagnostics")
	}
}

// TestTypedAdmission: the LDL200 type-inference family participates in
// admission — a program whose rule unifies statically disjoint types is
// rejected 422 vet_error even without StrictVet (LDL200 is error severity),
// and the positioned diagnostic reaches the client.
func TestTypedAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowAdmin: true})
	var eb errorBody
	prog := "age(ann, 31).\nadult(X) <- age(X, A), A = grown.\n"
	st := doJSON(t, http.MethodPut, ts.URL+"/db/typed", loadRequest{Program: prog}, &eb)
	if st != 422 || eb.Error.Code != "vet_error" {
		t.Fatalf("ill-typed load: status %d code %q, want 422 vet_error", st, eb.Error.Code)
	}
	found := false
	for _, d := range eb.Error.Diagnostics {
		if d.Code == "LDL200" {
			found = true
			if d.Pos.Line != 2 {
				t.Errorf("LDL200 position %v, want line 2", d.Pos)
			}
		}
	}
	if !found {
		t.Fatalf("no LDL200 diagnostic in rejection: %+v", eb.Error.Diagnostics)
	}

	// The same program without the clash loads fine.
	ok := "age(ann, 31).\nadult(X) <- age(X, A), A >= 18.\n"
	if st := doJSON(t, http.MethodPut, ts.URL+"/db/typed", loadRequest{Program: ok}, nil); st != 200 {
		t.Fatalf("well-typed load: status %d, want 200", st)
	}
}

func TestAdminDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, c := range []struct{ method, path string }{
		{http.MethodPut, "/db/x"},
		{http.MethodDelete, "/db/family"},
		{http.MethodPut, "/db/family/prepared/p"},
	} {
		var eb errorBody
		st := doJSON(t, c.method, ts.URL+c.path, map[string]string{"program": "p(a).", "query": "parent(X, Y)"}, &eb)
		if st != 403 || eb.Error.Code != "admin_disabled" {
			t.Fatalf("%s %s without -admin: status %d code %q, want 403 admin_disabled", c.method, c.path, st, eb.Error.Code)
		}
	}
}

func TestStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var q queryResponse
	post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(abe, W)"}, &q)
	post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(abe, W)"}, &q)
	var u updateResponse
	post(t, ts.URL+"/db/family/assert", factsRequest{Facts: "parent(dee, eve)."}, &u)
	var eb errorBody
	post(t, ts.URL+"/db/family/query", queryRequest{Query: "ancestor(X, Y)", MaxRows: 1}, &eb)

	var st statsResponse
	if code := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	db, ok := st.Databases["family"]
	if !ok {
		t.Fatalf("stats missing family: %+v", st)
	}
	if db.Reads != 2 || db.Writes != 1 || db.ReadErrors != 1 {
		t.Fatalf("counters reads=%d writes=%d readErrors=%d, want 2/1/1", db.Reads, db.Writes, db.ReadErrors)
	}
	if db.Facts["parent"] != 4 {
		t.Fatalf("facts[parent] = %d, want 4", db.Facts["parent"])
	}
	if db.ModelFacts == 0 || db.Eval.Derived == 0 || db.Eval.Firings == 0 {
		t.Fatalf("eval counters look dead: %+v", db.Eval)
	}
	if db.Cache.Hits != 1 || db.Cache.Misses == 0 {
		t.Fatalf("cache hits=%d misses=%d, want 1 hit (second identical query)", db.Cache.Hits, db.Cache.Misses)
	}
	if st.Requests < 5 || st.UptimeMS < 0 {
		t.Fatalf("requests=%d uptime=%dms", st.Requests, st.UptimeMS)
	}
}

// TestStatsEvalKeys pins the eval object of GET /stats: exactly these keys,
// in this order — what clients of ldl1d read.
func TestStatsEvalKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var st struct {
		Databases map[string]struct {
			Eval json.RawMessage `json:"eval"`
		} `json:"databases"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/stats", nil, &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	eval := st.Databases["family"].Eval
	dec := json.NewDecoder(bytes.NewReader(eval))
	if tok, err := dec.Token(); tok != json.Delim('{') {
		t.Fatalf("eval = %s: %v", eval, err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		var value any
		if err == nil {
			err = dec.Decode(&value)
		}
		if err != nil {
			t.Fatalf("eval = %s: %v", eval, err)
		}
		keys = append(keys, key.(string))
	}
	want := "iterations derived firings index_hits full_scans deleted_overestimate rederived regrouped_classes plans_reordered estimated_rows cache_hits"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("eval keys:\n got %s\nwant %s", got, want)
	}
}

func TestInfoAndHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info dbInfo
	if st := doJSON(t, http.MethodGet, ts.URL+"/db/family", nil, &info); st != 200 {
		t.Fatalf("info status %d", st)
	}
	if info.Name != "family" || info.Facts["parent"] != 3 || info.ModelFacts != info.Facts["parent"]+info.Facts["ancestor"] {
		t.Fatalf("info %+v", info)
	}
	var h struct {
		Status    string   `json:"status"`
		Databases []string `json:"databases"`
	}
	if st := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); st != 200 || h.Status != "ok" {
		t.Fatalf("healthz status %d body %+v", st, h)
	}
	if len(h.Databases) != 1 || h.Databases[0] != "family" {
		t.Fatalf("healthz databases %v", h.Databases)
	}
}

func TestDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Drain()
	var eb errorBody
	if st := post(t, ts.URL+"/db/family/query", queryRequest{Query: "parent(X, Y)"}, &eb); st != 503 || eb.Error.Code != "draining" {
		t.Fatalf("draining query: status %d code %q, want 503 draining", st, eb.Error.Code)
	}
}

func TestLoadValidation(t *testing.T) {
	s := New(Config{})
	if err := s.Load("bad name!", "p(a)."); err == nil {
		t.Fatal("invalid database name accepted")
	}
	// Embedded ?- queries in program files are tolerated (dropped).
	if err := s.Load("q", "p(a).\n?- p(X)."); err != nil {
		t.Fatalf("program with embedded query rejected: %v", err)
	}
	// An arithmetic expression is not a literal: a positioned parse error
	// (400 on the wire), never a relation named after the operator.
	for _, src := range []string{"0*(0).", "p(1). 1+2 <- p(X).", "p(1). q(X) <- p(X), X+1."} {
		var pe *ldl1.ParseError
		if err := s.Load("arith", src); !errors.As(err, &pe) || pe.Line != 1 || pe.Col == 0 {
			t.Errorf("Load(%q) = %v, want a positioned parse error", src, err)
		}
	}
	// StrictVet escalates warnings to rejection.
	strict := New(Config{StrictVet: true})
	// qq has no rules and no facts: LDL102, warning severity.
	warnSrc := "p(a). p(b). r(X) <- p(X), qq(X)."
	if err := New(Config{}).Load("w", warnSrc); err != nil {
		t.Fatalf("warning-only program rejected without StrictVet: %v", err)
	}
	if err := strict.Load("w", warnSrc); err == nil {
		t.Fatal("StrictVet accepted a program with warnings")
	} else if !strings.Contains(err.Error(), "vet") {
		t.Fatalf("StrictVet rejection is not a vet error: %v", err)
	}
}

func TestEffectiveLimits(t *testing.T) {
	cfg := Config{
		Defaults: Limits{Deadline: time.Second, MaxRows: 100, MemBudget: 1 << 20},
		Max:      Limits{Deadline: 2 * time.Second, MaxRows: 500},
	}
	// No overrides: defaults pass through.
	got := cfg.effective(0, 0, 0)
	if got != (Limits{Deadline: time.Second, MaxRows: 100, MemBudget: 1 << 20}) {
		t.Fatalf("defaults: %+v", got)
	}
	// Overrides replace defaults.
	got = cfg.effective(1500, 200, 2048)
	if got != (Limits{Deadline: 1500 * time.Millisecond, MaxRows: 200, MemBudget: 2048}) {
		t.Fatalf("overrides: %+v", got)
	}
	// Ceilings clamp overrides...
	got = cfg.effective(10_000, 10_000, 0)
	if got.Deadline != 2*time.Second || got.MaxRows != 500 {
		t.Fatalf("clamped: %+v", got)
	}
	// ...including "no bound requested" when a ceiling exists.
	unlimited := Config{Max: Limits{Deadline: time.Second, MaxRows: 10}}
	got = unlimited.effective(0, 0, 0)
	if got.Deadline != time.Second || got.MaxRows != 10 || got.MemBudget != 0 {
		t.Fatalf("ceiling without default: %+v", got)
	}
	// deadline_ms past what a time.Duration holds saturates: it neither
	// wraps negative (no deadline, overriding the default) nor wraps small
	// (a spurious timeout under the ceiling).
	noCeiling := Config{Defaults: Limits{Deadline: time.Second}}
	if got = noCeiling.effective(9223372036855, 0, 0); got.Deadline != time.Duration(maxDeadlineMS)*time.Millisecond {
		t.Fatalf("deadline_ms 9223372036855 without a ceiling: %v", got.Deadline)
	}
	if got = cfg.effective(18446744073710, 0, 0); got.Deadline != 2*time.Second {
		t.Fatalf("deadline_ms 18446744073710 under a 2s ceiling: %v", got.Deadline)
	}
}
