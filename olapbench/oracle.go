package main

// The correctness oracle: plain Go over the generated rows, written from
// the query semantics alone and sharing no code with the engine. WHERE
// restricts the groups and the unqualified aggregates; grouping variables
// range over the whole relation (the dialect's EMF-SQL rule). A view's
// groups are frozen at creation: they come from the rows present then,
// while its aggregates cover every row appended since.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mdjoin/internal/table"
)

// cell is one aggregate value of a result row: a number or SQL NULL.
type cell struct {
	v    float64
	null bool
}

// answer is a query result keyed by its grouping columns: a row's key
// cells, joined by "|", map to its aggregate cells.
type answer map[string][]cell

const allMarker = "ALL"

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

func num(v float64) cell { return cell{v: v} }

// acc accumulates one group.
type acc struct {
	sum float64
	n   int64
	max float64
}

func (a *acc) add(v float64) {
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.n++
}

func (a *acc) avg() cell {
	if a.n == 0 {
		return cell{null: true}
	}
	return num(a.sum / float64(a.n))
}

// groups folds rows into per-key accumulators; rows for which key
// returns "" are skipped.
func groups(rows []sale, key func(sale) string) map[string]*acc {
	out := map[string]*acc{}
	for _, r := range rows {
		k := key(r)
		if k == "" {
			continue
		}
		a := out[k]
		if a == nil {
			a = &acc{}
			out[k] = a
		}
		a.add(r.amount)
	}
	return out
}

// distinct lists the keys of rows, skipping "".
func distinct(rows []sale, key func(sale) string) map[string]bool {
	out := map[string]bool{}
	for _, r := range rows {
		if k := key(r); k != "" {
			out[k] = true
		}
	}
	return out
}

func custKey(r sale) string      { return itoa(r.cust) }
func custMonthKey(r sale) string { return itoa(r.cust) + "|" + itoa(r.month) }
func prodMonthKey(r sale) string { return itoa(r.prod) + "|" + itoa(r.month) }

// oracleAnswer computes template name's answer (year for the templates
// that take one). base holds the rows the groups come from and detail the
// rows the aggregates range over; they differ only for views.
func oracleAnswer(name string, year int64, base, detail []sale) (answer, error) {
	out := answer{}
	switch name {
	case "cust_month_sum":
		keys := distinct(base, custMonthKey)
		for k, a := range groups(detail, custMonthKey) {
			if keys[k] {
				out[k] = []cell{num(a.sum)}
			}
		}
	case "cust_sum_count":
		for k, a := range groups(detail, custKey) {
			out[k] = []cell{num(a.sum), num(float64(a.n))}
		}
	case "state_month_avg":
		g := groups(detail, func(r sale) string {
			if r.year != year {
				return ""
			}
			return r.state + "|" + itoa(r.month)
		})
		for k, a := range g {
			out[k] = []cell{a.avg()}
		}
	case "prod_state_max":
		for k, a := range groups(detail, func(r sale) string { return itoa(r.prod) + "|" + r.state }) {
			out[k] = []cell{num(a.max)}
		}
	case "cube_prod_month_state":
		for mask := 0; mask < 8; mask++ {
			for k, a := range groups(detail, cubeKey(mask)) {
				out[k] = []cell{num(a.sum)}
			}
		}
	case "rollup_state_month":
		for _, mask := range []int{3, 1, 0} {
			for k, a := range groups(detail, rollupKey(mask)) {
				out[k] = []cell{num(a.sum)}
			}
		}
	case "tri_state_avg":
		states := []string{"NY", "NJ", "CT"}
		per := make([]map[string]*acc, len(states))
		for i, st := range states {
			st := st
			per[i] = groups(detail, func(r sale) string {
				if r.state != st {
					return ""
				}
				return custKey(r)
			})
		}
		for k := range distinct(base, custKey) {
			cells := make([]cell, len(states))
			for i := range states {
				a := per[i][k]
				if a == nil {
					a = &acc{}
				}
				cells[i] = a.avg()
			}
			out[k] = cells
		}
	case "sales_window":
		avgs := groups(detail, prodMonthKey)
		groupKeys := distinct(base, func(r sale) string {
			if r.year != year {
				return ""
			}
			return prodMonthKey(r)
		})
		counts := map[string]int64{}
		for _, r := range detail {
			k := prodMonthKey(r)
			if !groupKeys[k] {
				continue
			}
			x := avgs[itoa(r.prod)+"|"+itoa(r.month-1)]
			y := avgs[itoa(r.prod)+"|"+itoa(r.month+1)]
			if x != nil && y != nil && r.amount > x.sum/float64(x.n) && r.amount < y.sum/float64(y.n) {
				counts[k]++
			}
		}
		for k := range groupKeys {
			out[k] = []cell{num(float64(counts[k]))}
		}
	case "above_own_avg":
		avgs := groups(detail, custKey)
		counts := map[string]int64{}
		for _, r := range detail {
			a := avgs[custKey(r)]
			if r.amount > a.sum/float64(a.n) {
				counts[custKey(r)]++
			}
		}
		for k := range avgs {
			out[k] = []cell{num(float64(counts[k]))}
		}
	case "state_sum":
		for k, a := range groups(detail, func(r sale) string { return r.state }) {
			out[k] = []cell{num(a.sum)}
		}
	default:
		return nil, fmt.Errorf("olapbench: no oracle for template %q", name)
	}
	return out, nil
}

// cubeKey keys a row by (prod, month, state), with ALL in every dimension
// whose bit is clear in mask (bit 0 prod, bit 1 month, bit 2 state).
func cubeKey(mask int) func(sale) string {
	return func(r sale) string {
		parts := [3]string{allMarker, allMarker, allMarker}
		if mask&1 != 0 {
			parts[0] = itoa(r.prod)
		}
		if mask&2 != 0 {
			parts[1] = itoa(r.month)
		}
		if mask&4 != 0 {
			parts[2] = r.state
		}
		return strings.Join(parts[:], "|")
	}
}

// rollupKey keys a row by (state, month) under the same mask rule (bit 0
// state, bit 1 month).
func rollupKey(mask int) func(sale) string {
	return func(r sale) string {
		parts := [2]string{allMarker, allMarker}
		if mask&1 != 0 {
			parts[0] = r.state
		}
		if mask&2 != 0 {
			parts[1] = itoa(r.month)
		}
		return strings.Join(parts[:], "|")
	}
}

// oracle caches the answers of a run's fixed-data requests.
type oracle struct {
	rows  []sale
	ts    []queryTemplate
	cache map[request]answer
}

func newOracle(rows []sale, ts []queryTemplate) *oracle {
	return &oracle{rows: rows, ts: ts, cache: map[request]answer{}}
}

// answer returns the expected result of r over the oracle's rows.
func (o *oracle) answer(r request) (answer, error) {
	if a, ok := o.cache[r]; ok {
		return a, nil
	}
	a, err := oracleAnswer(o.ts[r.tmpl].name, r.year, o.rows, o.rows)
	if err != nil {
		return nil, err
	}
	o.cache[r] = a
	return a, nil
}

// rowCounts returns the expected row count of every distinct request:
// the cheap check applied to each timed response.
func (o *oracle) rowCounts() (map[request]int, error) {
	out := map[request]int{}
	for _, r := range allRequests(o.ts) {
		a, err := o.answer(r)
		if err != nil {
			return nil, err
		}
		out[r] = len(a)
	}
	return out, nil
}

// answerFromJSON decodes a /query or /views response body into an
// answer whose first keys columns form the key.
func answerFromJSON(body []byte, keys int) (answer, error) {
	var resp struct {
		Columns  []string `json:"columns"`
		Rows     [][]any  `json:"rows"`
		RowCount int      `json:"row_count"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.RowCount != len(resp.Rows) {
		return nil, fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	out := make(answer, len(resp.Rows))
	for _, row := range resp.Rows {
		if len(row) != len(resp.Columns) || len(row) <= keys {
			return nil, fmt.Errorf("row %v does not match columns %v", row, resp.Columns)
		}
		parts := make([]string, keys)
		for i := range parts {
			switch v := row[i].(type) {
			case json.Number:
				parts[i] = v.String()
			case string:
				parts[i] = v
			case nil:
				parts[i] = "NULL"
			default:
				return nil, fmt.Errorf("unexpected key value %v", v)
			}
		}
		cells := make([]cell, len(row)-keys)
		for i, v := range row[keys:] {
			switch v := v.(type) {
			case json.Number:
				f, err := v.Float64()
				if err != nil {
					return nil, err
				}
				cells[i] = num(f)
			case nil:
				cells[i] = cell{null: true}
			default:
				return nil, fmt.Errorf("unexpected aggregate value %v", v)
			}
		}
		k := strings.Join(parts, "|")
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("duplicate group %s", k)
		}
		out[k] = cells
	}
	return out, nil
}

// answerFromTable converts an in-process result table.
func answerFromTable(t *table.Table, keys int) (answer, error) {
	out := make(answer, t.Len())
	for _, row := range t.Rows {
		if len(row) <= keys {
			return nil, fmt.Errorf("row %v has no aggregate columns", row)
		}
		parts := make([]string, keys)
		for i := range parts {
			parts[i] = row[i].String()
		}
		cells := make([]cell, len(row)-keys)
		for i, v := range row[keys:] {
			switch {
			case v.IsNull():
				cells[i] = cell{null: true}
			case v.IsNumeric():
				cells[i] = num(v.AsFloat())
			default:
				return nil, fmt.Errorf("unexpected aggregate value %v", v)
			}
		}
		k := strings.Join(parts, "|")
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("duplicate group %s", k)
		}
		out[k] = cells
	}
	return out, nil
}

// approxEqual reports whether two floats agree within a relative tolerance
// that absorbs summation-order differences.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// compareAnswers returns nil when got matches want, otherwise an error
// naming up to three differing groups.
func compareAnswers(got, want answer) error {
	var diffs []string
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("group %s missing", k))
		case len(g) != len(w):
			diffs = append(diffs, fmt.Sprintf("group %s has %d values, want %d", k, len(g), len(w)))
		default:
			for i := range w {
				if g[i].null != w[i].null || (!w[i].null && !approxEqual(g[i].v, w[i].v)) {
					diffs = append(diffs, fmt.Sprintf("group %s value %d: got %v, want %v", k, i, g[i], w[i]))
					break
				}
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("unexpected group %s", k))
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	sort.Strings(diffs)
	if len(diffs) > 3 {
		diffs = append(diffs[:3], fmt.Sprintf("and %d more", len(diffs)-3))
	}
	return fmt.Errorf("%d groups, want %d: %s", len(got), len(want), strings.Join(diffs, "; "))
}
