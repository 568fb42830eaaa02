package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"ldl1"
)

// Request bodies.  Every read accepts the same override triple; zero (or
// absent) fields fall back to the server defaults, and the configured
// ceilings clamp the result.
type queryRequest struct {
	Query      string `json:"query"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	MaxRows    int    `json:"max_rows,omitempty"`
	MemBudget  int64  `json:"mem_budget,omitempty"`
}

type execRequest struct {
	Args       []string `json:"args,omitempty"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
	MaxRows    int      `json:"max_rows,omitempty"`
	MemBudget  int64    `json:"mem_budget,omitempty"`
}

type updateRequest struct {
	// Assert and Retract are fact-list source text ("p(a). p(b)."); both
	// apply as ONE transaction with atomic model publication.
	Assert     string `json:"assert,omitempty"`
	Retract    string `json:"retract,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

type loadRequest struct {
	Program string `json:"program"`
}

type prepareRequest struct {
	Query string `json:"query"`
}

// Response bodies.  A query's answer table is written by writeAnswers.
type updateResponse struct {
	// Inserted and Deleted count the net model change, derived facts
	// included (ldl1.UpdateResult).
	Inserted int `json:"inserted"`
	Deleted  int `json:"deleted"`
}

type dbInfo struct {
	Name       string         `json:"name"`
	Facts      map[string]int `json:"facts"` // model facts per predicate
	ModelFacts int            `json:"model_facts"`
	Prepared   []string       `json:"prepared,omitempty"`
	LoadedAt   time.Time      `json:"loaded_at"`
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /db", s.handleList)
	s.mux.HandleFunc("GET /db/{name}", s.handleInfo)
	s.mux.HandleFunc("PUT /db/{name}", s.handleLoad)
	s.mux.HandleFunc("DELETE /db/{name}", s.handleDrop)
	s.mux.HandleFunc("POST /db/{name}/query", s.handleQuery)
	s.mux.HandleFunc("POST /db/{name}/assert", s.handleAssert)
	s.mux.HandleFunc("POST /db/{name}/retract", s.handleRetract)
	s.mux.HandleFunc("POST /db/{name}/tx", s.handleTx)
	s.mux.HandleFunc("GET /db/{name}/prepared", s.handlePreparedList)
	s.mux.HandleFunc("PUT /db/{name}/prepared/{pname}", s.handlePreparedDefine)
	s.mux.HandleFunc("POST /db/{name}/prepared/{pname}", s.handlePreparedExec)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "databases": s.Names()})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"databases": s.Names()})
}

func (s *Server) db(w http.ResponseWriter, r *http.Request) *database {
	db := s.lookup(r.PathValue("name"))
	if db == nil {
		errNotFound(w, "database "+r.PathValue("name"))
	}
	return db
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	db := s.db(w, r)
	if db == nil {
		return
	}
	writeJSON(w, infoOf(db))
}

func infoOf(db *database) dbInfo {
	facts := map[string]int{}
	total := 0
	// Nothing is ever loaded into the handle, so Run evaluates nothing.
	if m, err := db.eng.Run(); err == nil {
		for _, p := range m.DB().Preds() {
			n := m.DB().Card(p)
			facts[p] = n
			total += n
		}
	}
	db.pmu.RLock()
	prepared := make([]string, 0, len(db.prepared))
	for n := range db.prepared {
		prepared = append(prepared, n)
	}
	db.pmu.RUnlock()
	sort.Strings(prepared)
	return dbInfo{Name: db.name, Facts: facts, ModelFacts: total, Prepared: prepared, LoadedAt: db.loaded}
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowAdmin {
		errAdminDisabled(w)
		return
	}
	var req loadRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Program == "" {
		errBadRequest(w, "missing program")
		return
	}
	if err := s.Load(r.PathValue("name"), req.Program); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, infoOf(s.lookup(r.PathValue("name"))))
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowAdmin {
		errAdminDisabled(w)
		return
	}
	if !s.Drop(r.PathValue("name")) {
		errNotFound(w, "database "+r.PathValue("name"))
		return
	}
	writeJSON(w, map[string]any{"dropped": r.PathValue("name")})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	db := s.db(w, r)
	if db == nil {
		return
	}
	var req queryRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		errBadRequest(w, "missing query")
		return
	}
	lim := s.cfg.effective(req.DeadlineMS, req.MaxRows, req.MemBudget)
	ctx, cancel := s.reqCtx(r, 0) // deadline is applied inside QueryOpts
	defer cancel()
	ans, err := db.eng.QueryOpts(ctx, req.Query, ldl1.ReadOpts{
		Deadline: lim.Deadline, MaxRows: lim.MaxRows, MemBudget: lim.MemBudget,
	})
	if err != nil {
		db.readErrors.Add(1)
		writeError(w, err)
		return
	}
	db.reads.Add(1)
	writeAnswers(w, ans)
}

func (s *Server) handlePreparedList(w http.ResponseWriter, r *http.Request) {
	db := s.db(w, r)
	if db == nil {
		return
	}
	db.pmu.RLock()
	defer db.pmu.RUnlock()
	out := map[string]any{}
	for n, pv := range db.prepared {
		out[n] = map[string]any{"query": pv.Query(), "num_args": pv.NumArgs()}
	}
	writeJSON(w, map[string]any{"prepared": out})
}

func (s *Server) handlePreparedDefine(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.AllowAdmin {
		errAdminDisabled(w)
		return
	}
	if s.db(w, r) == nil {
		return
	}
	var req prepareRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Query == "" {
		errBadRequest(w, "missing query")
		return
	}
	if err := s.Prepare(r.PathValue("name"), r.PathValue("pname"), req.Query); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"prepared": r.PathValue("pname")})
}

func (s *Server) handlePreparedExec(w http.ResponseWriter, r *http.Request) {
	db := s.db(w, r)
	if db == nil {
		return
	}
	db.pmu.RLock()
	pv := db.prepared[r.PathValue("pname")]
	db.pmu.RUnlock()
	if pv == nil {
		errNotFound(w, "prepared query "+r.PathValue("pname"))
		return
	}
	var req execRequest
	if !decode(w, r, &req) {
		return
	}
	args := make([]ldl1.Term, 0, len(req.Args))
	for _, a := range req.Args {
		t, err := ldl1.ParseTerm(a)
		if err != nil {
			writeError(w, err)
			return
		}
		args = append(args, t)
	}
	lim := s.cfg.effective(req.DeadlineMS, req.MaxRows, req.MemBudget)
	ctx, cancel := s.reqCtx(r, 0)
	defer cancel()
	ans, err := pv.ExecOpts(ctx, ldl1.ReadOpts{
		Deadline: lim.Deadline, MaxRows: lim.MaxRows, MemBudget: lim.MemBudget,
	}, args...)
	if err != nil {
		db.readErrors.Add(1)
		writeError(w, err)
		return
	}
	db.reads.Add(1)
	writeAnswers(w, ans)
}

// handleUpdate is the shared write path: one transaction of insertions
// and retractions, serialized per database, applied through incremental
// maintenance with atomic snapshot publication.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, assert, retract string, deadlineMS int64) {
	db := s.db(w, r)
	if db == nil {
		return
	}
	if assert == "" && retract == "" {
		errBadRequest(w, "empty transaction: neither assert nor retract given")
		return
	}
	lim := s.cfg.effective(deadlineMS, 0, 0)
	ctx, cancel := s.reqCtx(r, lim.Deadline)
	defer cancel()
	db.writeMu.Lock()
	res, err := db.eng.UpdateCtx(ctx, assert, retract)
	db.writeMu.Unlock()
	if err != nil {
		db.writeErrors.Add(1)
		writeError(w, err)
		return
	}
	db.writes.Add(1)
	writeJSON(w, updateResponse{Inserted: res.Inserted, Deleted: res.Deleted})
}

// factsRequest is the assert/retract body: a batch of facts as source
// text, applied as one transaction.
type factsRequest struct {
	Facts      string `json:"facts"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) {
	var req factsRequest
	if !decode(w, r, &req) {
		return
	}
	s.handleUpdate(w, r, req.Facts, "", req.DeadlineMS)
}

func (s *Server) handleRetract(w http.ResponseWriter, r *http.Request) {
	var req factsRequest
	if !decode(w, r, &req) {
		return
	}
	s.handleUpdate(w, r, "", req.Facts, req.DeadlineMS)
}

func (s *Server) handleTx(w http.ResponseWriter, r *http.Request) {
	var req updateRequest
	if !decode(w, r, &req) {
		return
	}
	s.handleUpdate(w, r, req.Assert, req.Retract, req.DeadlineMS)
}

// Stats payloads.
type cacheStats struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions"`
	Entries   int `json:"entries"`
}

type dbStats struct {
	Facts       map[string]int `json:"facts"`
	ModelFacts  int            `json:"model_facts"`
	Reads       int64          `json:"reads"`
	Writes      int64          `json:"writes"`
	ReadErrors  int64          `json:"read_errors"`
	WriteErrors int64          `json:"write_errors"`
	Cache       cacheStats     `json:"cache"`
	Eval        ldl1.Stats     `json:"eval"`
}

type statsResponse struct {
	UptimeMS  int64              `json:"uptime_ms"`
	Requests  int64              `json:"requests"`
	Databases map[string]dbStats `json:"databases"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		UptimeMS:  time.Since(s.start).Milliseconds(),
		Requests:  s.requests.Load(),
		Databases: map[string]dbStats{},
	}
	for _, name := range s.Names() {
		db := s.lookup(name)
		if db == nil {
			continue
		}
		info := infoOf(db)
		// Snapshot the eval counters under the write lock: only write
		// transactions mutate the sink, and every write holds writeMu.
		db.writeMu.Lock()
		es := *db.evalStats
		db.writeMu.Unlock()
		hits, misses, evictions, entries := db.eng.CacheCounters()
		resp.Databases[name] = dbStats{
			Facts:       info.Facts,
			ModelFacts:  info.ModelFacts,
			Reads:       db.reads.Load(),
			Writes:      db.writes.Load(),
			ReadErrors:  db.readErrors.Load(),
			WriteErrors: db.writeErrors.Load(),
			Cache:       cacheStats{Hits: hits, Misses: misses, Evictions: evictions, Entries: entries},
			Eval:        es,
		}
	}
	writeJSON(w, resp)
}
