package server

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldl1"
	"ldl1/internal/analyze"
	"ldl1/internal/parser"
)

// database is one named materialized program: the engine handle that
// answers and maintains it, the named prepared handles, and the
// per-database counters.
//
// Concurrency: reads go straight to the handle's lock-free snapshot path
// and never take writeMu.  writeMu serializes write handlers (the handle
// serializes transactions internally too — writeMu exists so that the
// eval-stats sink, which the write path mutates, can be read consistently
// by /stats without racing an in-flight transaction).
type database struct {
	name string
	eng  *ldl1.Engine

	writeMu sync.Mutex // serializes writes; guards evalStats reads
	// evalStats accumulates the engine counters of the initial
	// materialization and every write transaction.  Only the write path
	// (under writeMu) mutates it; the read path deliberately never
	// touches it, so snapshot reads stay lock-free.
	evalStats *ldl1.Stats

	pmu      sync.RWMutex
	prepared map[string]*ldl1.PreparedQuery

	loaded                                 time.Time
	reads, writes, readErrors, writeErrors atomic.Int64
}

// Server is the ldl1d request-handling core: a registry of named
// databases plus the HTTP surface over them.  It is an http.Handler;
// cmd/ldl1d (and httptest in the test suites) supply the listener.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	mu  sync.RWMutex // guards dbs map surgery, not database internals
	dbs map[string]*database

	// drainCtx is canceled by Drain: every in-flight request's context is
	// derived from it, so a drain aborts running evaluations cleanly (the
	// engine's complete-or-pristine guarantee turns the cancellation into
	// rolled-back writes and canceled reads, never corrupted state).
	drainCtx context.Context
	drain    context.CancelFunc

	requests atomic.Int64
}

// New builds a server with no databases loaded; Load adds them.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg,
		start: time.Now(),
		dbs:   map[string]*database{},
	}
	s.drainCtx, s.drain = context.WithCancel(context.Background())
	s.routes()
	return s
}

// dbNamePat restricts database and prepared-query names to URL-safe
// identifiers.
var dbNamePat = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// Load parses, vets, and materializes a program under the given name —
// the admission path shared by boot-time loading and the admin endpoint.
// Admission is gated by the static analyzer: a program with any
// error-severity diagnostic (or any diagnostic at all under
// Config.StrictVet) is rejected with *ldl1.VetError before anything is
// evaluated.  Embedded ?- queries (common in programs/*.ldl) are dropped:
// a server database answers queries over HTTP, not from its source file.
// Loading an existing name atomically replaces the database.
func (s *Server) Load(name, src string) error {
	if !dbNamePat.MatchString(name) {
		return fmt.Errorf("invalid database name %q (want %s)", name, dbNamePat)
	}
	unit, err := parser.Parse(src)
	if err != nil {
		return err
	}
	// Vet BEFORE compiling: the compiler rejects unsafe programs too, but
	// with untyped well-formedness errors; vetting first means every
	// admission rejection is a *ldl1.VetError carrying positioned
	// diagnostics (→ HTTP 422 with the full diagnostic list).
	var rejected []ldl1.Diagnostic
	for _, d := range analyze.Program(unit.Program, nil, analyze.Options{}) {
		if s.cfg.StrictVet || d.Severity == ldl1.SeverityError {
			rejected = append(rejected, d)
		}
	}
	if len(rejected) > 0 {
		return &ldl1.VetError{Diagnostics: rejected}
	}
	st := &ldl1.Stats{}
	opts := []ldl1.Option{ldl1.WithStats(st)}
	if s.cfg.MaxDerivedPerTx > 0 {
		opts = append(opts, ldl1.WithLimit(s.cfg.MaxDerivedPerTx))
	}
	eng, err := ldl1.NewFromAST(unit.Program, opts...)
	if err != nil {
		return err
	}
	// The database holds the handle Materialize returns, whose reads count
	// into no WithStats sink and so take no lock; only its writes count
	// into st.
	if eng, err = eng.Materialize(); err != nil {
		return err
	}
	db := &database{
		name:      name,
		eng:       eng,
		evalStats: st,
		prepared:  map[string]*ldl1.PreparedQuery{},
		loaded:    time.Now(),
	}
	s.mu.Lock()
	s.dbs[name] = db
	s.mu.Unlock()
	return nil
}

// Drop removes a database; in-flight requests against it complete on
// their own snapshots.
func (s *Server) Drop(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.dbs[name]
	delete(s.dbs, name)
	return ok
}

// Prepare compiles and registers a named prepared query on a database —
// the handle the POST /db/{name}/prepared/{pname} endpoint executes.
func (s *Server) Prepare(dbName, queryName, query string) error {
	if !dbNamePat.MatchString(queryName) {
		return fmt.Errorf("invalid prepared-query name %q (want %s)", queryName, dbNamePat)
	}
	db := s.lookup(dbName)
	if db == nil {
		return fmt.Errorf("database %q not found", dbName)
	}
	pv, err := db.eng.Prepare(query)
	if err != nil {
		return err
	}
	db.pmu.Lock()
	db.prepared[queryName] = pv
	db.pmu.Unlock()
	return nil
}

// Names returns the loaded database names, sorted.
func (s *Server) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Server) lookup(name string) *database {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dbs[name]
}

// Drain cancels the context every in-flight request derives from: reads
// stop at their next poll with code canceled, writes roll back to the
// last published snapshot.  Call it when a graceful http.Server.Shutdown
// exceeds its grace period and the remaining requests must be cut short.
func (s *Server) Drain() { s.drain() }

// Draining reports whether Drain has been called; new requests are
// rejected with 503 once it has.
func (s *Server) Draining() bool { return s.drainCtx.Err() != nil }

// reqCtx derives a request context that is canceled when the client goes
// away, the server drains, or the effective deadline expires — whichever
// comes first.  The engine maps the causes to lderr.Canceled /
// lderr.DeadlineExceeded, which MapError turns into 499 / 504.
func (s *Server) reqCtx(r *http.Request, deadline time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.drainCtx, cancel)
	if deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, deadline)
		inner := cancel
		cancel = func() { cancelT(); inner() }
	}
	return ctx, func() { stop(); cancel() }
}

// ServeHTTP makes Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.Draining() {
		writeErrorInfo(w, http.StatusServiceUnavailable,
			ErrorInfo{Code: "draining", Message: "server is shutting down"})
		return
	}
	s.mux.ServeHTTP(w, r)
}
