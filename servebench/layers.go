package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"asqprl/internal/core"
	"asqprl/internal/engine"
	"asqprl/internal/server"
	"asqprl/internal/sqlparse"
)

// The traced pass times calls into each module's public functions from
// outside, one statement at a time, and records one span per call. It runs
// against a second server over the same system: that server skips drift
// observation, and the benchmark counts its WAL frames apart from the load
// phases'.

// reps is how often each layer call is repeated per statement; the
// per-statement time is the median of the repeats. It is even, so each of
// the two timed round trips comes first in half of them.
const reps = 4

// reconcileTolerance is how far the sum of the per-layer means may stray
// from the mean single-client round trip, as a share of the round trip.
// The transport part is measured on its own, against an echo server, so
// the sum is a measurement and not the round trip taken apart again.
const reconcileTolerance = 0.15

// span is one layer call of the traced pass.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stmtTimes holds one statement's per-layer medians in microseconds.
type stmtTimes struct {
	parse, estimate, query, approxExec, fullExec, handler, roundTrip float64
	socketHandler, timedRoundTrip                                    float64 // the timed server's handler and round trip
	pred, conf                                                       float64 // the estimator's prediction and confidence
	approxRoute                                                      bool
	rowsOut                                                          int
	respBytes                                                        int
	ok200                                                            int  // 200s the probe handler sent, on every path
	failed                                                           bool // some call gave no usable answer
}

// layerResult is what the traced pass reports.
type layerResult struct {
	metrics    map[string]float64
	probe200   int
	failed     int // statements with a call that gave no usable answer
	spans      *tracer
	violations []string
	budget     string   // human-readable reconciliation line
	mix        []string // per-template make-up of the round
	err        error
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timedServer serves the probe server's handler on a socket of its own,
// as server.New and Start configure theirs, and times every handler call
// on that path. The round trip to it minus that time is the transport part
// of the budget, measured in calls apart from the probe server's round
// trip that the budget has to add up to.
type timedServer struct {
	srv     *http.Server
	handled atomic.Int64 // ns the handler took on the last request
	done    chan struct{}
}

func newTimedServer(h http.Handler) *timedServer {
	t := &timedServer{done: make(chan struct{})}
	t.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			t.handled.Store(int64(time.Since(t0)))
		}),
		ReadHeaderTimeout: 5 * time.Second, // as server.New sets it
	}
	return t
}

// start listens on a free loopback port and serves in the background.
func (t *timedServer) start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(t.done)
		return "", err
	}
	go func() {
		defer close(t.done)
		_ = t.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return ln.Addr().String(), nil
}

// close shuts the server down and waits for its serving goroutine.
func (t *timedServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	<-t.done
	return err
}

// tracedPass runs one sequential pass over the round against the probe
// server and the system behind it, and against the timed server for the
// transport part of the budget.
func tracedPass(ctx context.Context, sys *core.System, probe *server.Server, probeAddr string, timed *timedServer, timedAddr string, refs []*stmtRef, frame, maxRows int, timeout time.Duration) *layerResult {
	tr := &tracer{epoch: time.Now()}
	handler := probe.Handler()
	cl := newClient(probeAddr, nil, 1)
	defer cl.close()
	tcl := newClient(timedAddr, nil, 1)
	defer tcl.close()
	eopts := engine.Options{MaxOutputRows: maxRows, Parallelism: sys.Config().Parallelism}
	qopts := core.QueryOptions{MaxRows: maxRows, SkipDrift: true}

	var handlerAlloc, engineAlloc uint64
	var handlerCalls, engineCalls int
	times := make([]stmtTimes, len(refs))
	var buf bytes.Buffer
	for i, ref := range refs {
		if ctx.Err() != nil {
			return &layerResult{err: ctx.Err()}
		}
		body, _ := json.Marshal(map[string]string{"sql": ref.q.sql}) // a map of strings always encodes
		root := tr.add(i, 0, "request", time.Now(), time.Now())
		var st stmtTimes
		samples := map[string][]float64{}
		timeCall := func(name string, f func() error) error {
			t0 := time.Now()
			err := f()
			t1 := time.Now()
			tr.add(i, root, name, t0, t1)
			samples[name] = append(samples[name], us(t1.Sub(t0)))
			return err
		}
		// execRung times one engine call on the set (full false) or on the
		// whole database; st is nil when the rung is not the chosen one.
		execRung := func(stmt *sqlparse.Select, full bool, st *stmtTimes) error {
			name, db := "engine.Execute/set", sys.SetDB()
			if full {
				name, db = "engine.Execute/full", sys.DB()
			}
			a0 := allocBytes()
			var out *engine.Result
			if err := timeCall(name, func() (err error) {
				out, err = engine.ExecuteWithContext(ctx, db, stmt, eopts)
				return err
			}); err != nil {
				return fmt.Errorf("statement %d: %s: %w", i, name, err)
			}
			if st != nil {
				engineAlloc += allocBytes() - a0
				engineCalls++
				st.rowsOut = out.Table.NumRows()
			}
			return nil
		}
		var stmt *sqlparse.Select
		for r := 0; r < reps; r++ {
			if err := timeCall("sqlparse.Parse", func() (err error) {
				stmt, err = sqlparse.Parse(ref.q.sql)
				return err
			}); err != nil {
				return &layerResult{err: fmt.Errorf("statement %d: parse: %w", i, err)}
			}
			estStmt := stmt
			if stmt.HasAggregates() {
				estStmt = engine.RewriteAggregateToSPJ(stmt)
			}
			timeCall("core.Estimate", func() error { st.pred, st.conf = sys.Estimator().Estimate(estStmt); return nil })
			var res *core.QueryResult
			if err := timeCall("core.QueryStmtContext", func() (err error) {
				qctx, cancel := context.WithTimeout(ctx, timeout)
				defer cancel()
				res, err = sys.QueryStmtContext(qctx, stmt, qopts)
				return err
			}); err != nil {
				return &layerResult{err: fmt.Errorf("statement %d: query: %w", i, err)}
			}
			st.approxRoute = res.FromApproximation
			// Only the chosen rung runs here. The other one runs after the
			// repeats: a full-database call leaves garbage whose collection
			// would otherwise be charged to the calls timed after it.
			if err := execRung(stmt, !st.approxRoute, &st); err != nil {
				return &layerResult{err: err}
			}
			a0 := allocBytes()
			var status int
			timeCall("server.ServeHTTP", func() error {
				rec := httptest.NewRecorder()
				req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				handler.ServeHTTP(rec, req)
				status = rec.Code
				st.respBytes = rec.Body.Len()
				return nil
			})
			handlerAlloc += allocBytes() - a0
			handlerCalls++
			if status == http.StatusOK {
				st.ok200++
			}
			if status != http.StatusOK || st.respBytes == 0 {
				st.failed = true
			}
			// The first socket call after the in-process calls also pays
			// for waking the idle processor, and a connection left idle
			// meanwhile is colder than one just used. An untimed call to
			// each server takes those costs, and the two timed round trips
			// swap order every repeat so neither always comes first.
			for _, c := range []*client{cl, tcl} {
				if err := probeCall(ctx, c, body, &buf, &st); err != nil {
					return &layerResult{err: fmt.Errorf("statement %d: warm-up round trip: %w", i, err)}
				}
			}
			roundTrips := []func() error{
				func() error {
					return timeCall("http.RoundTrip", func() error { return probeCall(ctx, cl, body, &buf, &st) })
				},
				func() error {
					t0 := time.Now()
					err := probeCall(ctx, tcl, body, &buf, &st)
					t1 := time.Now()
					id := tr.add(i, root, "http.RoundTrip/timed", t0, t1)
					h := time.Duration(timed.handled.Load())
					tr.add(i, id, "server.Handler/socket", t1.Add(-h), t1)
					samples["http.RoundTrip/timed"] = append(samples["http.RoundTrip/timed"], us(t1.Sub(t0)))
					samples["server.Handler/socket"] = append(samples["server.Handler/socket"], us(h))
					return err
				},
			}
			if r%2 == 1 {
				roundTrips[0], roundTrips[1] = roundTrips[1], roundTrips[0]
			}
			for _, f := range roundTrips {
				if err := f(); err != nil {
					return &layerResult{err: fmt.Errorf("statement %d: round trip: %w", i, err)}
				}
			}
		}
		for r := 0; r < reps; r++ {
			if err := execRung(stmt, st.approxRoute, nil); err != nil {
				return &layerResult{err: err}
			}
		}
		st.parse = median(samples["sqlparse.Parse"])
		st.estimate = median(samples["core.Estimate"])
		st.query = median(samples["core.QueryStmtContext"])
		st.approxExec = median(samples["engine.Execute/set"])
		st.fullExec = median(samples["engine.Execute/full"])
		st.handler = median(samples["server.ServeHTTP"])
		st.roundTrip = median(samples["http.RoundTrip"])
		st.socketHandler = median(samples["server.Handler/socket"])
		st.timedRoundTrip = median(samples["http.RoundTrip/timed"])
		tr.spans[root-1].End = time.Since(tr.epoch).Nanoseconds()
		times[i] = st
	}
	return summarizeLayers(times, refs, frame, handlerAlloc, handlerCalls, engineAlloc, engineCalls, tr)
}

// probeCall sends one statement over a socket and notes the answer in st.
// Only a transport error is returned; a status other than 200 or an empty
// body marks the statement failed.
func probeCall(ctx context.Context, c *client, body []byte, buf *bytes.Buffer, st *stmtTimes) error {
	status, resp, err := c.do(ctx, body, buf)
	if err != nil {
		return err
	}
	if status == http.StatusOK {
		st.ok200++
	}
	if status != http.StatusOK || len(resp) == 0 {
		st.failed = true
	}
	return nil
}

// summarizeLayers turns per-statement times into the per-layer metrics and
// reconciles them with the round trip.
func summarizeLayers(times []stmtTimes, refs []*stmtRef, frame int, handlerAlloc uint64, handlerCalls int, engineAlloc uint64, engineCalls int, tr *tracer) *layerResult {
	pos := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	col := func(f func(stmtTimes) float64) []float64 {
		out := make([]float64, len(times))
		for i, t := range times {
			out[i] = f(t)
		}
		return out
	}
	chosenExec := func(t stmtTimes) float64 {
		if t.approxRoute {
			return t.approxExec
		}
		return t.fullExec
	}
	m := map[string]float64{
		"server.transport_us": median(col(func(t stmtTimes) float64 { return pos(t.roundTrip - t.handler) })),
		"server.self_us":      median(col(func(t stmtTimes) float64 { return pos(t.handler - t.query - t.parse) })),
		"core.ladder_self_us": median(col(func(t stmtTimes) float64 { return pos(t.query - t.estimate - chosenExec(t)) })),
		"core.estimate_us":    median(col(func(t stmtTimes) float64 { return t.estimate })),
		"sqlparse.parse_us":   median(col(func(t stmtTimes) float64 { return t.parse })),
	}
	// The budget reconciles means, which add where medians do not. Its
	// parts come from calls apart from the probe server's round trip they
	// must add up to: the leaves (parse, estimate, the chosen rung's engine
	// call) and the handler from in-process calls, the transport from
	// round trips to the timed server minus its handler time on the
	// socket. The two residuals (server self, ladder self) are the mean of
	// a call minus the means of the calls it contains; one below 0 means a
	// layer measured alone took longer than the call around it, and is
	// clamped at 0 and named in the budget line.
	avg := func(f func(stmtTimes) float64) float64 { return mean(col(f)) }
	transport := func(t stmtTimes) float64 { return t.timedRoundTrip - t.socketHandler }
	rt := avg(func(t stmtTimes) float64 { return t.roundTrip })
	hM := avg(func(t stmtTimes) float64 { return t.handler })
	qM := avg(func(t stmtTimes) float64 { return t.query })
	pM := avg(func(t stmtTimes) float64 { return t.parse })
	eM := avg(func(t stmtTimes) float64 { return t.estimate })
	xM := avg(chosenExec)
	budget := []struct {
		name string
		v    float64
	}{
		{"server.transport_apart_us", avg(transport)},
		{"server.self_us", hM - qM - pM},
		{"sqlparse.parse_us", pM},
		{"core.estimate_us", eM},
		{"core.ladder_self_us", qM - eM - xM},
		{"engine.chosen_exec_us", xM},
	}
	var sum float64
	var parts, clamped []string
	for _, b := range budget {
		if b.v < 0 {
			clamped = append(clamped, fmt.Sprintf("%s %.1f", b.name, b.v))
		}
		sum += pos(b.v)
		parts = append(parts, fmt.Sprintf("%s %.1f", b.name, pos(b.v)))
	}
	m["server.transport_apart_us"] = median(col(transport))
	m["server.socket_handler_us"] = median(col(func(t stmtTimes) float64 { return t.socketHandler }))
	m["server.roundtrip_us"] = median(col(func(t stmtTimes) float64 { return t.roundTrip }))
	m["server.handler_us"] = median(col(func(t stmtTimes) float64 { return t.handler }))
	m["core.query_us"] = median(col(func(t stmtTimes) float64 { return t.query }))
	m["engine.approx_exec_us"] = median(col(func(t stmtTimes) float64 { return t.approxExec }))
	m["engine.full_exec_us"] = median(col(func(t stmtTimes) float64 { return t.fullExec }))
	m["server.response_bytes"] = median(col(func(t stmtTimes) float64 { return float64(t.respBytes) }))
	m["server.alloc_kb_per_req"] = float64(handlerAlloc) / 1024 / float64(handlerCalls)
	m["engine.alloc_kb_per_query"] = float64(engineAlloc) / 1024 / float64(engineCalls)
	m["budget.sum_over_rt"] = sum / rt

	rows, approx, probe200 := 0, 0, 0
	var fullSPJ, falseFallback, setSPJ, falseAccept int
	var failed int
	var violations []string
	for i, t := range times {
		rows += t.rowsOut
		probe200 += t.ok200
		if t.failed {
			failed++
			if !refs[i].q.nan {
				violations = append(violations, fmt.Sprintf("traced pass: statement %d (%s) gave no usable answer", i, refs[i].q.tmpl))
			}
		}
		if t.approxRoute {
			approx++
		}
		q := refs[i].q
		if q.isAgg() || q.nan {
			continue
		}
		fills := frameScore(refs[i].set.n, refs[i].full.n, frame) >= 1
		if t.approxRoute {
			setSPJ++
			if !fills {
				falseAccept++
			}
		} else {
			fullSPJ++
			if fills {
				falseFallback++
			}
		}
	}
	m["engine.rows_out"] = float64(rows)
	m["core.approx_share"] = float64(approx) / float64(len(times))
	m["core.false_fallback_share"] = share(falseFallback, fullSPJ)
	m["core.false_accept_share"] = share(falseAccept, setSPJ)

	lr := &layerResult{metrics: m, probe200: probe200, failed: failed, spans: tr, mix: mixLines(times, refs)}
	lr.budget = fmt.Sprintf("mean round trip %.1f us; parts sum to %.1f us (%.1f%%, tolerance %.0f%%): %s",
		rt, sum, 100*sum/rt, 100*reconcileTolerance, strings.Join(parts, ", "))
	if len(clamped) > 0 {
		lr.budget += "; clamped at 0: " + strings.Join(clamped, ", ")
	}
	if sum > rt*(1+reconcileTolerance) || sum < rt*(1-reconcileTolerance) {
		violations = append(violations, "per-layer budget does not reconcile: "+lr.budget)
	}
	lr.violations = violations
	return lr
}

func share(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// mixLines describes the round per template: share of statements, median
// rows of q(T), median response bytes, and the share routed to the set.
func mixLines(times []stmtTimes, refs []*stmtRef) []string {
	type agg struct {
		n, approx         int
		rows, bytes, conf []float64
	}
	by := map[string]*agg{}
	var names []string
	for i, t := range times {
		q := refs[i].q
		a := by[q.tmpl]
		if a == nil {
			a = &agg{}
			by[q.tmpl] = a
			names = append(names, q.tmpl)
		}
		a.n++
		if t.approxRoute {
			a.approx++
		}
		n := refs[i].full.n
		if q.isAgg() {
			n = len(refs[i].full.groups)
		}
		a.rows = append(a.rows, float64(n))
		a.bytes = append(a.bytes, float64(t.respBytes))
		a.conf = append(a.conf, t.conf)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		a := by[name]
		out = append(out, fmt.Sprintf("mix %-24s %3d statements, median %5.0f rows, %6.0f bytes, confidence %.2f, %3.0f%% to the set",
			name, a.n, median(a.rows), median(a.bytes), median(a.conf), 100*float64(a.approx)/float64(a.n)))
	}
	return out
}
