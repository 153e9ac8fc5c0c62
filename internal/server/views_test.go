package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mdjoin/internal/table"
	"mdjoin/internal/workload"
)

// do issues an arbitrary request against the test server.
func do(t *testing.T, ts *httptest.Server, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// salesCSV renders a Sales delta as a CSV upload body.
func salesCSV(t *testing.T, rows *table.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := table.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// resultRows decodes the "rows" array of a JSON envelope into a
// canonically-ordered string form for comparison.
func resultRows(t *testing.T, body []byte) []string {
	t.Helper()
	var env struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decoding result envelope: %v\n%s", err, body)
	}
	out := make([]string, len(env.Rows))
	for i, r := range env.Rows {
		out[i] = fmt.Sprint(r)
	}
	// Order-insensitive: group-by output order is not part of the contract.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestViewMatchesQueryAcrossAppends is the end-to-end maintenance
// contract: a view answers exactly what its query answers over the
// current table state, before and after appended deltas — without the
// server ever re-running the MD-join over the full detail relation.
func TestViewMatchesQueryAcrossAppends(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const q = "select cust, sum(sale) as total, count(*) as n from Sales group by cust"

	status, body := do(t, ts, http.MethodPost, "/views/by_cust", q)
	if status != http.StatusOK {
		t.Fatalf("create view: %d %s", status, body)
	}

	check := func(stage string) {
		t.Helper()
		vs, vbody := do(t, ts, http.MethodGet, "/views/by_cust", "")
		if vs != http.StatusOK {
			t.Fatalf("%s: read view: %d %s", stage, vs, vbody)
		}
		qs, qbody, _ := post(t, ts, q, "")
		if qs != http.StatusOK {
			t.Fatalf("%s: query: %d %s", stage, qs, qbody)
		}
		got, want := resultRows(t, vbody), resultRows(t, qbody)
		if len(got) != len(want) {
			t.Fatalf("%s: view has %d rows, query has %d", stage, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d: view %s, query %s", stage, i, got[i], want[i])
			}
		}
	}
	check("initial")

	for round := 0; round < 3; round++ {
		delta := workload.Sales(workload.SalesConfig{
			Rows: 150, Customers: 50, Products: 20,
			Years: 2, FirstYear: 1996, States: 5, Seed: int64(100 + round),
		})
		as, abody := do(t, ts, http.MethodPut, "/tables/Sales/append", salesCSV(t, delta))
		if as != http.StatusOK {
			t.Fatalf("append round %d: %d %s", round, as, abody)
		}
		var ar struct {
			RowsAppended int      `json:"rows_appended"`
			ViewsUpdated []string `json:"views_updated"`
		}
		if err := json.Unmarshal(abody, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.RowsAppended != 150 || len(ar.ViewsUpdated) != 1 || ar.ViewsUpdated[0] != "by_cust" {
			t.Fatalf("append round %d response: %s", round, abody)
		}
		check(fmt.Sprintf("after append %d", round))
	}

	// The surrounding plan (projection renaming, order, limit) executes
	// over the materialized snapshot too.
	status, body = do(t, ts, http.MethodPost, "/views/top",
		"select cust, sum(sale) as total from Sales group by cust order by total desc limit 3")
	if status != http.StatusOK {
		t.Fatalf("create ordered view: %d %s", status, body)
	}
	vs, vbody := do(t, ts, http.MethodGet, "/views/top", "")
	if vs != http.StatusOK {
		t.Fatalf("read ordered view: %d %s", vs, vbody)
	}
	var env struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.Unmarshal(vbody, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Rows) != 3 {
		t.Fatalf("limit 3 view returned %d rows", len(env.Rows))
	}

	// Lifecycle: list, delete, gone.
	ls, lbody := do(t, ts, http.MethodGet, "/views", "")
	if ls != http.StatusOK || !strings.Contains(string(lbody), "by_cust") || !strings.Contains(string(lbody), "top") {
		t.Fatalf("list views: %d %s", ls, lbody)
	}
	if ds, _ := do(t, ts, http.MethodDelete, "/views/top", ""); ds != http.StatusOK {
		t.Fatalf("delete view: %d", ds)
	}
	if gs, _ := do(t, ts, http.MethodGet, "/views/top", ""); gs != http.StatusNotFound {
		t.Fatalf("deleted view answered %d", gs)
	}
}

// TestViewValidation pins the creation and append guardrails.
func TestViewValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxViews: 2})

	cases := map[string]struct {
		path, body string
		status     int
	}{
		"no md-join": {"/views/v", "select cust from Sales", http.StatusBadRequest},
		"with":       {"/views/v", "with s as (select cust, sale from Sales) select cust, sum(sale) as t from s group by cust", http.StatusBadRequest},
		"bad table":  {"/views/v", "select cust, sum(sale) as t from Nope group by cust", http.StatusBadRequest},
		"parse":      {"/views/v", "selec nothing", http.StatusBadRequest},
	}
	for name, c := range cases {
		if status, body := do(t, ts, http.MethodPost, c.path, c.body); status != c.status {
			t.Errorf("%s: status %d (want %d): %s", name, status, c.status, body)
		}
	}

	const q = "select cust, sum(sale) as total from Sales group by cust"
	if status, body := do(t, ts, http.MethodPost, "/views/a", q); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	if status, _ := do(t, ts, http.MethodPost, "/views/a", q); status != http.StatusConflict {
		t.Errorf("duplicate view name not refused with 409 (got %d)", status)
	}
	if status, body := do(t, ts, http.MethodPost, "/views/b", q); status != http.StatusOK {
		t.Fatalf("create second: %d %s", status, body)
	}
	if status, _ := do(t, ts, http.MethodPost, "/views/c", q); status != http.StatusConflict {
		t.Errorf("view over MaxViews not refused with 409 (got %d)", status)
	}

	// Appends: unknown table, schema mismatch.
	if status, _ := do(t, ts, http.MethodPut, "/tables/Nope/append", "a,b\n1,2\n"); status != http.StatusNotFound {
		t.Errorf("append to unknown table answered %d, want 404", status)
	}
	if status, _ := do(t, ts, http.MethodPut, "/tables/Sales/append", "a,b\n1,2\n"); status != http.StatusBadRequest {
		t.Errorf("schema-mismatched append answered %d, want 400", status)
	}
}

// TestViewBudgetEviction: a view over a holistic aggregate grows with its
// inputs (agg.Sized accounting); crossing the per-view budget evicts the
// view at append time instead of letting maintenance state grow without
// bound. Creation over the budget is refused outright.
func TestViewBudgetEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxViews: 4, ViewPoolBytes: 4 * 600_000})
	const q = "select cust, median(sale) as med from Sales group by cust"

	status, body := do(t, ts, http.MethodPost, "/views/med", q)
	if status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}

	// Feed deltas until the retained multisets cross the ~600KB share.
	evicted := false
	for round := 0; round < 40 && !evicted; round++ {
		delta := workload.Sales(workload.SalesConfig{
			Rows: 4000, Customers: 50, Seed: int64(round),
		})
		as, abody := do(t, ts, http.MethodPut, "/tables/Sales/append", salesCSV(t, delta))
		if as != http.StatusOK {
			t.Fatalf("append: %d %s", as, abody)
		}
		var ar struct {
			ViewsEvicted []string `json:"views_evicted"`
		}
		if err := json.Unmarshal(abody, &ar); err != nil {
			t.Fatal(err)
		}
		evicted = len(ar.ViewsEvicted) > 0
	}
	if !evicted {
		t.Fatal("over-budget view was never evicted")
	}
	if status, _ := do(t, ts, http.MethodGet, "/views/med", ""); status != http.StatusNotFound {
		t.Errorf("evicted view still answers (%d)", status)
	}
	if s.m.viewsEvicted.Load() == 0 {
		t.Error("eviction counter did not move")
	}

	// A view whose backfill alone exceeds the budget is refused at birth.
	tiny, tinyTS := New(Config{MaxViews: 4, ViewPoolBytes: 4 * 1024}), (*httptest.Server)(nil)
	tiny.RegisterTable("Sales", testSales())
	tinyTS = httptest.NewServer(tiny.Handler())
	defer tinyTS.Close()
	if status, body := do(t, tinyTS, http.MethodPost, "/views/med", q); status != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget creation answered %d (want 413): %s", status, body)
	}
}

// TestAppendIsCopyOnWrite: a table snapshot taken before an append (as an
// in-flight query would) must not observe the appended rows.
func TestAppendIsCopyOnWrite(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before, err := s.snapshot().Lookup("Sales")
	if err != nil {
		t.Fatal(err)
	}
	nBefore := before.Len()
	delta := workload.Sales(workload.SalesConfig{Rows: 100, Customers: 50, Seed: 77})
	if status, body := do(t, ts, http.MethodPut, "/tables/Sales/append", salesCSV(t, delta)); status != http.StatusOK {
		t.Fatalf("append: %d %s", status, body)
	}
	if before.Len() != nBefore {
		t.Fatalf("pre-append snapshot grew from %d to %d rows", nBefore, before.Len())
	}
	after, err := s.snapshot().Lookup("Sales")
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != nBefore+100 {
		t.Fatalf("post-append table has %d rows, want %d", after.Len(), nBefore+100)
	}
}

// TestViewStatsAndDrain: /stats carries the views block, and mutating
// view/append endpoints refuse during drain while reads keep working.
func TestViewStatsAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const q = "select cust, sum(sale) as total from Sales group by cust"
	if status, body := do(t, ts, http.MethodPost, "/views/v", q); status != http.StatusOK {
		t.Fatalf("create: %d %s", status, body)
	}
	delta := workload.Sales(workload.SalesConfig{Rows: 10, Customers: 50, Seed: 9})
	if status, _ := do(t, ts, http.MethodPut, "/tables/Sales/append", salesCSV(t, delta)); status != http.StatusOK {
		t.Fatal("append failed")
	}

	status, body := do(t, ts, http.MethodGet, "/stats", "")
	if status != http.StatusOK {
		t.Fatalf("/stats: %d", status)
	}
	var st struct {
		Views struct {
			Count   int    `json:"count"`
			Appends uint64 `json:"appends"`
		} `json:"views"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Views.Count != 1 || st.Views.Appends != 1 {
		t.Fatalf("views stats = %+v, body %s", st.Views, body)
	}

	s.BeginDrain()
	if status, _ := do(t, ts, http.MethodPost, "/views/w", q); status != http.StatusServiceUnavailable {
		t.Errorf("view creation during drain answered %d", status)
	}
	if status, _ := do(t, ts, http.MethodPut, "/tables/Sales/append", salesCSV(t, delta)); status != http.StatusServiceUnavailable {
		t.Errorf("append during drain answered %d", status)
	}
	if status, _ := do(t, ts, http.MethodGet, "/views/v", ""); status != http.StatusOK {
		t.Errorf("view read during drain answered %d", status)
	}
}

// TestViewRowsInMatchesReply races view reads against appends: every
// reply's rows_in must count exactly the detail rows its rows aggregate,
// never rows appended after the snapshot was taken.
func TestViewRowsInMatchesReply(t *testing.T) {
	s := New(Config{})
	s.RegisterTable("T", table.MustFromRows(table.SchemaOf("k", "v"), []table.Row{
		{table.Int(1), table.Int(10)}, {table.Int(2), table.Int(20)},
	}))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if status, body := do(t, ts, http.MethodPost, "/views/total", "select count(*) as n from T"); status != http.StatusOK {
		t.Fatalf("create view: %d %s", status, body)
	}

	const appends = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < appends; i++ {
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/tables/T/append", strings.NewReader("k,v\n1,1\n2,2\n"))
			if err != nil {
				done <- err
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				done <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("append %d: status %d", i, resp.StatusCode)
				return
			}
		}
		done <- nil
	}()

	reads := 0
	for finished := false; !finished; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		status, body := do(t, ts, http.MethodGet, "/views/total", "")
		if status != http.StatusOK {
			t.Fatalf("read view: %d %s", status, body)
		}
		var reply struct {
			Rows   [][]int `json:"rows"`
			RowsIn int     `json:"rows_in"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
		if len(reply.Rows) != 1 || reply.Rows[0][0] != reply.RowsIn {
			t.Fatalf("read %d: rows_in %d, but the reply aggregates %v rows", reads, reply.RowsIn, reply.Rows)
		}
	}
	status, body := do(t, ts, http.MethodGet, "/views/total", "")
	if want := fmt.Sprintf(`"rows":[[%d]]`, 2+2*appends); status != http.StatusOK || !strings.Contains(string(body), want) {
		t.Fatalf("final read after %d appends: %d %s, want %s", appends, status, body, want)
	}
}
