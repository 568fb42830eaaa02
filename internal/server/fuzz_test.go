package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// errorStatus is errors.go's table: every code a response may carry, with
// its HTTP status.  "internal" is absent: no request may produce a 500.
var errorStatus = map[string]int{
	"parse_error":         http.StatusBadRequest,
	"vet_error":           http.StatusUnprocessableEntity,
	"instantiation_error": http.StatusUnprocessableEntity,
	"flounder_error":      http.StatusUnprocessableEntity,
	"limit_error":         http.StatusRequestEntityTooLarge,
	"mem_budget_error":    http.StatusRequestEntityTooLarge,
	"deadline_exceeded":   http.StatusGatewayTimeout,
	"canceled":            StatusClientClosedRequest,
	"not_found":           http.StatusNotFound,
	"bad_request":         http.StatusBadRequest,
	"request_too_large":   http.StatusRequestEntityTooLarge,
	"admin_disabled":      http.StatusForbidden,
}

// fuzzPaths are the request kinds FuzzRequest chooses among; the reads
// answer a table, the writes an update count.
var fuzzPaths = []struct {
	path string
	read bool
}{
	{"/db/family/query", true},
	{"/db/family/prepared/anc", true},
	{"/db/family/assert", false},
	{"/db/family/retract", false},
	{"/db/family/tx", false},
}

// FuzzRequest sends a hostile body to one of the query, prepared exec,
// assert, retract and tx endpoints of a fresh server.  Nothing may panic or
// answer 500; every error body is {"error":{...}} with a code from the
// table and its status; every read answer is valid JSON whose count is the
// number of its rows.  The server's bounds keep every input finite.
//
//	go test -run '^$' -fuzz FuzzRequest -fuzztime 60s ./internal/server
func FuzzRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		bound := Limits{Deadline: 200 * time.Millisecond, MaxRows: 1000, MemBudget: 1 << 20}
		s := New(Config{Defaults: bound, Max: bound, MaxDerivedPerTx: 10_000})
		if err := s.Load("family", familySrc); err != nil {
			t.Fatal(err)
		}
		if err := s.Prepare("family", "anc", "ancestor(abe, W)"); err != nil {
			t.Fatal(err)
		}
		ep := fuzzPaths[int(kind)%len(fuzzPaths)]
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", ep.path, bytes.NewReader(body)))
		got := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			var e struct {
				Error *ErrorInfo `json:"error"`
			}
			dec := json.NewDecoder(bytes.NewReader(got))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&e); err != nil || e.Error == nil {
				t.Fatalf("%s %q: status %d, body %q is not an error object (%v)", ep.path, body, rec.Code, got, err)
			}
			if status, ok := errorStatus[e.Error.Code]; !ok || status != rec.Code {
				t.Fatalf("%s %q: status %d with code %q (%s)", ep.path, body, rec.Code, e.Error.Code, e.Error.Message)
			}
			return
		}
		if !ep.read {
			var u updateResponse
			if err := json.Unmarshal(got, &u); err != nil {
				t.Fatalf("%s %q: update body %q: %v", ep.path, body, got, err)
			}
			return
		}
		var q queryResponse
		if err := json.Unmarshal(got, &q); err != nil {
			t.Fatalf("%s %q: answer body %q: %v", ep.path, body, got, err)
		}
		if q.Count != len(q.Rows) {
			t.Fatalf("%s %q: count %d, %d rows", ep.path, body, q.Count, len(q.Rows))
		}
	})
}
