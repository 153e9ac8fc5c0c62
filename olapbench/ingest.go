package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/sqlext"
	"mdjoin/internal/table"
)

// ingestExpect holds what the ingest checks compare against.
type ingestExpect struct {
	d         *dataset
	viewRows  []int    // row count of each view (groups frozen at creation)
	adhocRows int      // row count of the ad-hoc query
	stateSums []answer // ad-hoc answer after k appends, k = 0..deltaBatches
	finals    []answer // each view after the last append
}

func newIngestExpect(d *dataset) (*ingestExpect, error) {
	e := &ingestExpect{d: d}
	for _, t := range viewTemplates {
		a, err := oracleAnswer(t.name, 0, d.sales, d.sales)
		if err != nil {
			return nil, err
		}
		e.viewRows = append(e.viewRows, len(a))
	}
	// The ad-hoc answer after k appends: per-state sums over the prefix,
	// built batch by batch.
	sums := map[string]float64{}
	for _, r := range d.sales {
		sums[r.state] += r.amount
	}
	snap := func() answer {
		a := answer{}
		for k, v := range sums {
			a[k] = []cell{num(v)}
		}
		return a
	}
	e.stateSums = append(e.stateSums, snap())
	for _, b := range d.deltas {
		for _, r := range b {
			sums[r.state] += r.amount
		}
		e.stateSums = append(e.stateSums, snap())
	}
	e.adhocRows = len(e.stateSums[0])
	all := d.prefix(len(d.deltas))
	for _, t := range viewTemplates {
		a, err := oracleAnswer(t.name, 0, d.sales, all)
		if err != nil {
			return nil, err
		}
		e.finals = append(e.finals, a)
	}
	return e, nil
}

// viewAt is view v's answer after k appends.
func (e *ingestExpect) viewAt(v, k int) (answer, error) {
	return oracleAnswer(viewTemplates[v].name, 0, e.d.sales, e.d.prefix(k))
}

// createViews registers the ingest views on a served instance.
func createViews(base string) error {
	h := newHTTPClient()
	defer h.close()
	for i, name := range viewNames {
		if err := requestJSON(h, http.MethodPost, base+"/views/"+name, []byte(viewTemplates[i].sql), nil); err != nil {
			return err
		}
	}
	return nil
}

// sample is one reader response kept for the full check. The table or
// view it answered from held between lo and hi appends: lo appends were
// acknowledged before it was sent, hi had been sent when it returned.
// view is the view read, or -1 for the ad-hoc query.
type sample struct {
	view   int
	lo, hi int
	body   []byte
}

// ingestPhase is the outcome of the served ingest phase.
type ingestPhase struct {
	appendLat            []float64  // ms
	reads                *latencies // by readKinds
	appendWall, readWall time.Duration
	samples              []sample
}

// readKinds names the reader's request kinds: one per view, then the
// ad-hoc query.
var readKinds = append(append([]string(nil), viewNames...), adhocTemplate.name)

// adhocKind is the ad-hoc query's index in readKinds.
var adhocKind = len(viewNames)

// viewSampleEvery is how often the reader keeps a view response for the
// full check; every ad-hoc response is kept.
const viewSampleEvery = 100

// runIngestClients runs the two ingest clients: one sends every append
// batch, the other makes every read step. Both are bounded by work, so
// each run ends with the same table and views.
func runIngestClients(base string, e *ingestExpect, hardStop time.Time, t *tally) ingestPhase {
	var (
		out                  = ingestPhase{reads: newLatencies(len(readKinds))}
		started, done        atomic.Int64
		wg                   sync.WaitGroup
		appendWall, readWall time.Duration
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		h := newHTTPClient()
		defer h.close()
		start := time.Now()
		for i, payload := range e.d.payloads {
			if time.Now().After(hardStop) {
				t.fail("append %d: run out of time", i)
				break
			}
			started.Add(1)
			status, body, lat, err := h.do(http.MethodPut, base+"/tables/Sales/append", payload)
			done.Add(1)
			out.appendLat = append(out.appendLat, ms(lat))
			switch {
			case err != nil:
				t.fail("append %d: %v", i, err)
			case status != http.StatusOK:
				t.fail("append %d: status %d: %.200s", i, status, body)
			case !bytes.Contains(body, []byte(fmt.Sprintf(`"rows_appended":%d,`, deltaRows))) ||
				!bytes.Contains(body, []byte(`"views_evicted":null`)):
				t.fail("append %d: unexpected reply %.200s", i, body)
			default:
				t.ok()
			}
		}
		appendWall = time.Since(start)
	}()
	go func() {
		defer wg.Done()
		h := newHTTPClient()
		defer h.close()
		// read sends one request, applies the cheap check, and keeps the
		// response for the full check when keep is set.
		read := func(view int, method, target string, body []byte, want int, keep bool) float64 {
			lo := int(done.Load())
			status, resp, lat, err := h.do(method, target, body)
			hi := int(started.Load())
			checkRows(t, target, status, resp, err, want)
			if keep && err == nil && status == http.StatusOK {
				out.samples = append(out.samples, sample{view: view, lo: lo, hi: hi, body: bytes.Clone(resp)})
			}
			return ms(lat)
		}
		start := time.Now()
		for step := 0; step < readSteps; step++ {
			if time.Now().After(hardStop) {
				t.fail("read step %d: run out of time", step)
				break
			}
			v := step % len(viewNames)
			keep := step%viewSampleEvery == viewSampleEvery-1
			out.reads.add(v, read(v, http.MethodGet, base+"/views/"+viewNames[v], nil, e.viewRows[v], keep))
			if (step+1)%adhocEvery == 0 {
				out.reads.add(adhocKind, read(-1, http.MethodPost, base+"/query", []byte(adhocTemplate.sql), e.adhocRows, true))
			}
		}
		readWall = time.Since(start)
	}()
	wg.Wait()
	out.appendWall, out.readWall = appendWall, readWall
	return out
}

// verifyIngest compares, outside the timed phase, every kept sample and
// the final contents of both views against the oracle.
func verifyIngest(base string, e *ingestExpect, p ingestPhase, t *tally) error {
	for i, s := range p.samples {
		if err := checkSample(s, e); err != nil {
			t.fail("reader sample %d: %v", i, err)
		} else {
			t.ok()
		}
	}
	h := newHTTPClient()
	defer h.close()
	for v, name := range viewNames {
		status, body, _, err := h.do(http.MethodGet, base+"/views/"+name, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			t.fail("final view %s: status %d", name, status)
			continue
		}
		got, err := answerFromJSON(body, viewTemplates[v].keys)
		if err == nil {
			err = compareAnswers(got, e.finals[v])
		}
		if err != nil {
			t.fail("final view %s: %v", name, err)
		} else {
			t.ok()
		}
	}
	return nil
}

// checkSample reports an error unless the sample equals the oracle's
// answer after k appends for some k in [lo, hi]. The check does not
// trust a view reply's rows_in: mdserve reads it after the snapshot, so
// an append landing in between makes it run ahead of the rows returned.
func checkSample(s sample, e *ingestExpect) error {
	keys := adhocTemplate.keys
	name := adhocTemplate.name
	if s.view >= 0 {
		keys, name = viewTemplates[s.view].keys, viewNames[s.view]
	}
	got, err := answerFromJSON(s.body, keys)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var last error
	for k := s.lo; k <= s.hi && k < len(e.stateSums); k++ {
		want := e.stateSums[k]
		if s.view >= 0 {
			if want, err = e.viewAt(s.view, k); err != nil {
				return err
			}
		}
		if last = compareAnswers(got, want); last == nil {
			return nil
		}
	}
	return fmt.Errorf("%s matches no state between %d and %d appends: %v", name, s.lo, s.hi, last)
}

// libView is one view maintained in-process the way mdserve maintains
// it: the view query's single MD-join compiled into a core.Incremental,
// the rest of its plan executed over each snapshot.
type libView struct {
	plan optimizer.Plan
	mdj  *optimizer.MDJoin
	inc  *core.Incremental
}

// libIngest is the in-process replay of the ingest workload, used by the
// direct phase (tr nil) and the traced run.
type libIngest struct {
	sales *table.Table
	views []libView
	tr    *tracer
}

func newLibIngest(sales *table.Table, tr *tracer) (*libIngest, error) {
	l := &libIngest{sales: sales, tr: tr}
	cat := optimizer.Catalog{"Sales": sales}
	for _, t := range viewTemplates {
		prep, err := sqlext.Prepare(t.sql)
		if err != nil {
			return nil, err
		}
		mdjs := optimizer.CollectMDJoins(prep.Plan())
		if len(mdjs) != 1 {
			return nil, fmt.Errorf("view %s has %d MD-joins", t.name, len(mdjs))
		}
		mdj := mdjs[0]
		base, err := mdj.Base.Execute(cat)
		if err != nil {
			return nil, err
		}
		opt := mdj.Opt
		if opt.RAlias == "" {
			opt.RAlias = mdj.DetailName
		}
		opt.Parallelism, opt.DetailParallelism = 0, 0
		opt.MaxBaseRows, opt.MemoryBudgetBytes = 0, 0
		opt.Ctx, opt.Stats, opt.Shared = nil, nil, nil
		id := tr.begin("core.NewIncremental")
		inc, err := core.NewIncremental(base, sales.Schema, mdj.Phases, opt, core.IncrementalConfig{})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("core.Incremental.Append")
		err = inc.Append(sales.Rows)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		l.views = append(l.views, libView{plan: prep.Plan(), mdj: mdj, inc: inc})
	}
	return l, nil
}

// appendBatch parses a CSV batch, extends Sales copy-on-write as mdserve
// does (the extended table carries no columnar mirror), and folds the
// batch into every view.
func (l *libIngest) appendBatch(payload []byte) error {
	id := l.tr.begin("table.ReadCSV")
	delta, err := table.ReadCSV(bytes.NewReader(payload))
	l.tr.end(id)
	if err != nil {
		return err
	}
	old := l.sales
	l.sales = &table.Table{Schema: old.Schema, Rows: append(old.Rows[:old.Len():old.Len()], delta.Rows...)}
	for _, v := range l.views {
		id := l.tr.begin("core.Incremental.Append")
		err := v.inc.Append(delta.Rows)
		l.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// readView snapshots view v and executes the rest of its plan over the
// snapshot.
func (l *libIngest) readView(v int) (*table.Table, error) {
	lv := l.views[v]
	id := l.tr.begin("core.Incremental.Snapshot")
	snap, err := lv.inc.Snapshot()
	l.tr.end(id)
	if err != nil {
		return nil, err
	}
	grafted := optimizer.ReplacePlanNode(lv.plan, lv.mdj, &optimizer.Literal{Table: snap, Label: "view " + viewNames[v]})
	return execPlan(grafted, l.catalog(), l.tr)
}

func (l *libIngest) catalog() optimizer.Catalog { return optimizer.Catalog{"Sales": l.sales} }
