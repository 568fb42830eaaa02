// Package client is the Go client for ldl1d, the LDL1 deductive-database
// server.  It mirrors the server's HTTP/JSON surface — snapshot queries,
// prepared-query execution, transactional assert/retract, admin loading,
// and /stats — and maps the server's structured error responses back onto
// the engine's typed error taxonomy, so errors.Is / errors.As branch the
// same way against a remote server as against an in-process Engine:
//
//	_, err := c.Query(ctx, "family", "ancestor(abe, W)", nil)
//	if errors.Is(err, ldl1.ErrDeadlineExceeded) { ... }
//
// The client is stateless and safe for concurrent use.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"ldl1"
	"ldl1/internal/bufpool"
)

// Client talks to one ldl1d server.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g. "http://localhost:8370").
// The optional http.Client overrides the default transport (nil uses
// http.DefaultClient-equivalent with no client-side timeout: deadlines
// belong to the per-request context and the server's budgets).
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc}
}

// ReadOpts are per-request overrides of the server's default budgets.
// Zero fields keep the server defaults; the server clamps overrides to
// its configured ceilings.
type ReadOpts struct {
	Deadline  time.Duration
	MaxRows   int
	MemBudget int64
}

// Result is one answer table.
type Result struct {
	Vars  []string   `json:"vars"`
	Rows  [][]string `json:"rows"`
	Count int        `json:"count"`
}

// UpdateResult is the net model change of one transaction.
type UpdateResult struct {
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

// APIError is a structured error response from the server.  Unwrap
// reconstructs the corresponding engine error, so errors.Is and
// errors.As match the lderr taxonomy across the wire.
type APIError struct {
	Status  int
	Code    string            `json:"code"`
	Message string            `json:"message"`
	Line    int               `json:"line,omitempty"`
	Col     int               `json:"col,omitempty"`
	Limit   int               `json:"limit,omitempty"`
	Budget  int64             `json:"budget,omitempty"`
	Builtin string            `json:"builtin,omitempty"`
	Diags   []ldl1.Diagnostic `json:"diagnostics,omitempty"`
}

func (e *APIError) Error() string {
	return fmt.Sprintf("ldl1d: %s (%d %s)", e.Message, e.Status, e.Code)
}

// Unwrap maps the stable error code back to the engine's typed error, so
// client code branches with errors.Is(err, ldl1.ErrDeadlineExceeded),
// errors.As(&ldl1.LimitError{}), etc.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case "parse_error":
		return &ldl1.ParseError{Line: e.Line, Col: e.Col, Msg: e.Message}
	case "limit_error":
		return &ldl1.LimitError{Limit: e.Limit}
	case "mem_budget_error":
		return &ldl1.MemBudgetError{Budget: e.Budget}
	case "instantiation_error":
		return &ldl1.InstantiationError{Builtin: e.Builtin, Literal: e.Message}
	case "vet_error":
		return &ldl1.VetError{Diagnostics: e.Diags}
	case "deadline_exceeded":
		return ldl1.ErrDeadlineExceeded
	case "canceled":
		return ldl1.ErrCanceled
	default:
		return nil
	}
}

// do issues one JSON request and decodes the response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	p := bufpool.Get()
	defer bufpool.Put(p)
	if err := bufpool.ReadFrom(p, resp.Body); err != nil {
		return err
	}
	data := *p
	if resp.StatusCode >= 400 {
		var eb struct {
			Error APIError `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error.Code != "" {
			eb.Error.Status = resp.StatusCode
			return &eb.Error
		}
		return fmt.Errorf("ldl1d: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// readRequest is the body of a query or a prepared execution.  Its fields
// are in key order, so it encodes to the same bytes as a map of the keys it
// sends.
type readRequest struct {
	Args       []string `json:"args,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
	MaxRows    int      `json:"max_rows,omitempty"`
	MemBudget  int64    `json:"mem_budget,omitempty"`
	Query      string   `json:"query,omitempty"`
}

func readBody(q string, args []string, o *ReadOpts) *readRequest {
	body := &readRequest{Query: q, Args: args}
	if o != nil {
		if o.Deadline > 0 {
			body.DeadlineMS = o.Deadline.Milliseconds()
		}
		body.MaxRows, body.MemBudget = max(o.MaxRows, 0), max(o.MemBudget, 0)
	}
	return body
}

// Query answers a conjunctive query against db's current model snapshot.
func (c *Client) Query(ctx context.Context, db, query string, o *ReadOpts) (*Result, error) {
	var out Result
	if err := c.do(ctx, http.MethodPost, "/db/"+url.PathEscape(db)+"/query", readBody(query, nil, o), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Exec executes the named prepared query with the given arguments (terms
// as source text: "abe", "42", `"str"`).
func (c *Client) Exec(ctx context.Context, db, name string, args []string, o *ReadOpts) (*Result, error) {
	var out Result
	if err := c.do(ctx, http.MethodPost, "/db/"+url.PathEscape(db)+"/prepared/"+url.PathEscape(name), readBody("", args, o), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// factsBody is the body of an assert or a retract.
type factsBody struct {
	Facts string `json:"facts"`
}

// Assert inserts facts ("p(a). p(b).") as one transaction.
func (c *Client) Assert(ctx context.Context, db, facts string) (UpdateResult, error) {
	var out UpdateResult
	err := c.do(ctx, http.MethodPost, "/db/"+url.PathEscape(db)+"/assert", factsBody{facts}, &out)
	return out, err
}

// Retract removes facts as one transaction.
func (c *Client) Retract(ctx context.Context, db, facts string) (UpdateResult, error) {
	var out UpdateResult
	err := c.do(ctx, http.MethodPost, "/db/"+url.PathEscape(db)+"/retract", factsBody{facts}, &out)
	return out, err
}

// Tx applies insertions and retractions as ONE atomic transaction: no
// reader observes the asserts without the retracts.
func (c *Client) Tx(ctx context.Context, db, assert, retract string) (UpdateResult, error) {
	var out UpdateResult
	err := c.do(ctx, http.MethodPost, "/db/"+url.PathEscape(db)+"/tx",
		map[string]any{"assert": assert, "retract": retract}, &out)
	return out, err
}

// Load admits a program under the given database name (admin endpoint).
func (c *Client) Load(ctx context.Context, db, program string) error {
	return c.do(ctx, http.MethodPut, "/db/"+url.PathEscape(db), map[string]any{"program": program}, nil)
}

// Drop removes a database (admin endpoint).
func (c *Client) Drop(ctx context.Context, db string) error {
	return c.do(ctx, http.MethodDelete, "/db/"+url.PathEscape(db), nil, nil)
}

// Prepare registers a named prepared query on db (admin endpoint).
func (c *Client) Prepare(ctx context.Context, db, name, query string) error {
	return c.do(ctx, http.MethodPut, "/db/"+url.PathEscape(db)+"/prepared/"+url.PathEscape(name),
		map[string]any{"query": query}, nil)
}

// DBStats is the per-database slice of /stats.
type DBStats struct {
	Facts       map[string]int `json:"facts"`
	ModelFacts  int            `json:"model_facts"`
	Reads       int64          `json:"reads"`
	Writes      int64          `json:"writes"`
	ReadErrors  int64          `json:"read_errors"`
	WriteErrors int64          `json:"write_errors"`
	Cache       struct {
		Hits      int `json:"hits"`
		Misses    int `json:"misses"`
		Evictions int `json:"evictions"`
		Entries   int `json:"entries"`
	} `json:"cache"`
	Eval map[string]int64 `json:"eval"`
}

// Stats is the /stats payload.
type Stats struct {
	UptimeMS  int64              `json:"uptime_ms"`
	Requests  int64              `json:"requests"`
	Databases map[string]DBStats `json:"databases"`
}

// Stats fetches the server counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var out Stats
	if err := c.do(ctx, http.MethodGet, "/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks /healthz and returns the loaded database names.
func (c *Client) Health(ctx context.Context) ([]string, error) {
	var out struct {
		Status    string   `json:"status"`
		Databases []string `json:"databases"`
	}
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return out.Databases, nil
}
