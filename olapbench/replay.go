package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/server"
	"mdjoin/internal/sqlext"
	"mdjoin/internal/table"
)

// The in-process phases. The direct phase replays a workload's request
// sequence through the library with one caller and no tracing; the
// traced run replays it again with a span around every layer call, and
// sends each request also to an in-process server.New through
// ServeHTTP, so the server's own share of a request can be told apart.

// runQuery executes one query in-process. Untraced it is exactly the
// library call users make (sqlext.RunContext); traced, it makes the same
// calls one by one: parse, translate, optimize, execute.
func runQuery(src string, cat optimizer.Catalog, tr *tracer) (*table.Table, error) {
	if tr == nil {
		return sqlext.RunContext(context.Background(), src, cat, core.Options{})
	}
	id := tr.begin("sqlext.Parse")
	q, err := sqlext.Parse(src)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("sqlext.Translate")
	plan, err := sqlext.Translate(q)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("optimizer.Optimize")
	plan = optimizer.Optimize(plan)
	tr.end(id)
	return execPlan(plan, cat, tr)
}

// serveTraced sends one request to the in-process server inside a
// server.ServeHTTP span and returns the status.
func serveTraced(srv *server.Server, tr *tracer, method, target string, body []byte) int {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	id := tr.begin("server.ServeHTTP")
	srv.ServeHTTP(rec, req)
	tr.end(id)
	tr.setCached(bytes.Contains(rec.Body.Bytes(), []byte(`"cached_plan":true`)))
	return rec.Code
}

// replayQueries replays a query workload's request stream until lim says
// stop, and returns each request's latency. With a tracer, each request
// is also served by srv.
func replayQueries(cat optimizer.Catalog, ts []queryTemplate, stream *requestStream, counts map[request]int, lim phaseLimit, tr *tracer, srv *server.Server, t *tally) *latencies {
	lat := newLatencies(len(ts))
	start := time.Now()
	for !lim.done(start, len(lat.all)) {
		r := stream.next()
		src := r.text(ts)
		tr.startRequest("query", ts[r.tmpl].name)
		root := tr.begin("request")
		t0 := time.Now()
		res, err := runQuery(src, cat, tr)
		lat.add(r.tmpl, ms(time.Since(t0)))
		tr.end(root)
		checkTable(t, "query "+ts[r.tmpl].name, res, err, counts[r])
		if tr != nil {
			if code := serveTraced(srv, tr, http.MethodPost, "/query", []byte(src)); code != http.StatusOK {
				t.fail("in-process server: query %s: status %d", ts[r.tmpl].name, code)
			}
		}
	}
	return lat
}

// checkTable applies the cheap check to an in-process result.
func checkTable(t *tally, what string, res *table.Table, err error, want int) {
	switch {
	case err != nil:
		t.fail("%s: %v", what, err)
	case res.Len() != want:
		t.fail("%s: %d rows, want %d", what, res.Len(), want)
	default:
		t.ok()
	}
}

// verifyQueries runs every distinct request once in-process and compares
// the full result with the oracle.
func verifyQueries(cat optimizer.Catalog, o *oracle, t *tally) {
	for _, r := range allRequests(o.ts) {
		want, err := o.answer(r)
		if err != nil {
			t.fail("oracle: %v", err)
			continue
		}
		res, err := runQuery(r.text(o.ts), cat, nil)
		var got answer
		if err == nil {
			got, err = answerFromTable(res, o.ts[r.tmpl].keys)
		}
		if err == nil {
			err = compareAnswers(got, want)
		}
		if err != nil {
			t.fail("direct %s %d: %v", o.ts[r.tmpl].name, r.year, err)
		} else {
			t.ok()
		}
	}
}

// replayIngest replays steps [from, to) of the ingest sequence
// in-process: append batch i, then read step i (a view read, plus the
// ad-hoc query every adhocEvery steps). It returns the latencies of the
// reads in ms; appends are not timed. The ad-hoc results, and the final
// views once the last step has run, are checked in full. With a tracer,
// every request is also served by srv, which must hold the same table and
// views.
func replayIngest(l *libIngest, e *ingestExpect, from, to int, tr *tracer, srv *server.Server, t *tally) (*latencies, error) {
	lat := newLatencies(len(readKinds))
	for i := from; i < to; i++ {
		payload := e.d.payloads[i]
		tr.startRequest("append", "append")
		root := tr.begin("request")
		err := l.appendBatch(payload)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("append %d: %w", i, err)
		}
		if tr != nil {
			if code := serveTraced(srv, tr, http.MethodPut, "/tables/Sales/append", payload); code != http.StatusOK {
				t.fail("in-process server: append %d: status %d", i, code)
			}
		}

		v := i % len(viewNames)
		tr.startRequest("view", viewNames[v])
		root = tr.begin("request")
		t0 := time.Now()
		res, err := l.readView(v)
		lat.add(v, ms(time.Since(t0)))
		tr.end(root)
		checkTable(t, "view "+viewNames[v], res, err, e.viewRows[v])
		if tr != nil {
			if code := serveTraced(srv, tr, http.MethodGet, "/views/"+viewNames[v], nil); code != http.StatusOK {
				t.fail("in-process server: view %s: status %d", viewNames[v], code)
			}
		}
		if (i+1)%adhocEvery != 0 {
			continue
		}

		tr.startRequest("query", adhocTemplate.name)
		root = tr.begin("request")
		t0 = time.Now()
		res, err = runQuery(adhocTemplate.sql, l.catalog(), tr)
		lat.add(adhocKind, ms(time.Since(t0)))
		tr.end(root)
		if err == nil {
			var got answer
			if got, err = answerFromTable(res, adhocTemplate.keys); err == nil {
				err = compareAnswers(got, e.stateSums[i+1])
			}
		}
		if err != nil {
			t.fail("direct ad-hoc query after %d appends: %v", i+1, err)
		} else {
			t.ok()
		}
		if tr != nil {
			if code := serveTraced(srv, tr, http.MethodPost, "/query", []byte(adhocTemplate.sql)); code != http.StatusOK {
				t.fail("in-process server: ad-hoc query: status %d", code)
			}
		}
	}
	if to < len(e.d.payloads) {
		return lat, nil
	}
	for v := range viewNames {
		res, err := l.readView(v)
		var got answer
		if err == nil {
			got, err = answerFromTable(res, viewTemplates[v].keys)
		}
		if err == nil {
			err = compareAnswers(got, e.finals[v])
		}
		if err != nil {
			t.fail("direct final view %s: %v", viewNames[v], err)
		} else {
			t.ok()
		}
	}
	return lat, nil
}

// newTraceServer builds the in-process server of the traced run over
// sales, with the ingest views when ingest is set.
func newTraceServer(sales *table.Table, ingest bool) (*server.Server, error) {
	srv := server.New(server.Config{})
	srv.RegisterTable("Sales", sales)
	if !ingest {
		return srv, nil
	}
	for i, name := range viewNames {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/views/"+name, bytes.NewReader([]byte(viewTemplates[i].sql))))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process server: creating view %s: status %d: %s", name, rec.Code, rec.Body)
		}
	}
	return srv, nil
}
