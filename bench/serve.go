package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ldl1/client"
	"ldl1/internal/server"
)

const (
	dbName    = "t"
	reqHeader = "X-Bench-Req"
)

// served is ldl1d hosted in this process: the real handler behind a real
// loopback TCP listener, reached through the real client.  Nothing is
// forked; close releases the listener and the client's connections.
type served struct {
	ts  *httptest.Server
	hc  *http.Client
	cl  *client.Client
	tap *wireTap // nil when untraced
	mw  *middleware
	// tracing switches the request id header — and with it the wire and
	// handler spans — on and off, so one server can serve an untraced
	// phase and then a traced one.
	tracing atomic.Bool
}

// reqKey carries an op's request id to the transport.
type reqKey struct{}

// startServed loads src into a fresh server, prepares one handle per query
// shape, and opens the listener.  The returned duration is the
// ready-to-serve time.  With a tracer, the handler is wrapped in the
// timing middleware and the client's transport in the wire tap.
func startServed(src string, clients int, tr *tracer) (*served, time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Config{})
	if err := srv.Load(dbName, src); err != nil {
		return nil, 0, fmt.Errorf("server load: %w", err)
	}
	for s := shape(0); s < numShapes; s++ {
		if err := srv.Prepare(dbName, shapeHandle[s], s.text("n1")); err != nil {
			return nil, 0, fmt.Errorf("server prepare %s: %w", shapeHandle[s], err)
		}
	}
	sv := &served{}
	var h http.Handler = srv
	if tr != nil {
		sv.mw = &middleware{next: srv, tr: tr}
		h = sv.mw
	}
	sv.ts = httptest.NewServer(h)
	setup := time.Since(t0)

	tp := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	var rt http.RoundTripper = tp
	if tr != nil {
		sv.tap = &wireTap{next: tp, tr: tr}
		dial := (&net.Dialer{}).DialContext
		tp.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
			sv.tap.conns.Add(1)
			return dial(ctx, network, addr)
		}
		rt = sv.tap
	}
	sv.hc = &http.Client{Transport: rt}
	sv.cl = client.New(sv.ts.URL, sv.hc)
	return sv, setup, nil
}

func (sv *served) close() {
	sv.hc.CloseIdleConnections()
	sv.ts.Close()
}

func (sv *served) do(ctx context.Context, req int64, o op) (int, error) {
	if sv.tracing.Load() {
		ctx = context.WithValue(ctx, reqKey{}, req)
	}
	var res *client.Result
	var err error
	switch o.kind {
	case opQuery:
		res, err = sv.cl.Query(ctx, dbName, o.text, nil)
	case opExec:
		res, err = sv.cl.Exec(ctx, dbName, shapeHandle[o.shape], []string{o.arg}, nil)
	case opAssert:
		_, err = sv.cl.Assert(ctx, dbName, o.text)
		return 0, err
	case opRetract:
		_, err = sv.cl.Retract(ctx, dbName, o.text)
		return 0, err
	}
	if err != nil {
		return 0, err
	}
	if res.Count != len(res.Rows) {
		return 0, fmt.Errorf("count %d but %d rows", res.Count, len(res.Rows))
	}
	return res.Count, nil
}

// middleware times ServeHTTP from outside the server and records one
// server.handler span per request that carries a request id.
type middleware struct {
	next   http.Handler
	tr     *tracer
	c4, c5 atomic.Int64
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(reqHeader) == "" {
		m.next.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	m.next.ServeHTTP(sw, r)
	t1 := time.Now()
	switch {
	case sw.status >= 500:
		m.c5.Add(1)
	case sw.status >= 400:
		m.c4.Add(1)
	}
	if req, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
		m.tr.add(req, layerHandler, t0, t1, sw.status < 400)
	}
}

// wireTap is the client-side end of the wire: it stamps the request id
// header, times the round trip up to the last byte of the response body,
// and counts bytes and connections.
type wireTap struct {
	next  http.RoundTripper
	tr    *tracer
	conns atomic.Int64

	mu                  sync.Mutex
	reqBytes, respBytes int64
	n                   int64
}

func (t *wireTap) RoundTrip(r *http.Request) (*http.Response, error) {
	req, ok := r.Context().Value(reqKey{}).(int64)
	if !ok {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		t.tr.add(req, layerWire, t0, time.Now(), false)
		return nil, err
	}
	resp.Body = &tapBody{ReadCloser: resp.Body, tap: t, req: req, t0: t0,
		reqBytes: r.ContentLength, ok: resp.StatusCode < 400}
	return resp, nil
}

// tapBody closes the wire span when the client has read the whole body.
type tapBody struct {
	io.ReadCloser
	tap      *wireTap
	req      int64
	t0       time.Time
	reqBytes int64
	n        int64
	ok       bool
	done     bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil && !b.done {
		b.done = true
		b.tap.tr.add(b.req, layerWire, b.t0, time.Now(), b.ok && err == io.EOF)
		b.tap.mu.Lock()
		b.tap.reqBytes += b.reqBytes
		b.tap.respBytes += b.n
		b.tap.n++
		b.tap.mu.Unlock()
	}
	return n, err
}

// stats fetches the server's own counters for the benchmark database.
func (sv *served) stats(ctx context.Context) (client.DBStats, int64, error) {
	st, err := sv.cl.Stats(ctx)
	if err != nil {
		return client.DBStats{}, 0, err
	}
	return st.Databases[dbName], st.Requests, nil
}
