package main

import (
	"fmt"
	"math/rand"
)

// queryTemplate is one query shape a client may send. A template with
// yearParam takes a year (1996 or 1997), filled into its %d.
type queryTemplate struct {
	name      string
	sql       string
	keys      int // leading grouping columns of the result
	yearParam bool
}

// request is one concrete query: a template and, where it takes one, a
// year.
type request struct {
	tmpl int
	year int64
}

// groupbyTemplates is the ad-hoc reporting mix: plain group-bys with sum,
// count, avg and max over 20 to 12k groups, a cube and a rollup.
var groupbyTemplates = []queryTemplate{
	{name: "cust_month_sum", keys: 2, sql: "select cust, month, sum(sale) as total from Sales group by cust, month"},
	{name: "cust_sum_count", keys: 1, sql: "select cust, sum(sale) as total, count(*) as n from Sales group by cust"},
	{name: "state_month_avg", keys: 2, sql: "select state, month, avg(sale) as a from Sales where year = %d group by state, month", yearParam: true},
	{name: "prod_state_max", keys: 2, sql: "select prod, state, max(sale) as m from Sales group by prod, state"},
	{name: "cube_prod_month_state", keys: 3, sql: "select prod, month, state, sum(sale) as t from Sales analyze by cube(prod, month, state)"},
	{name: "rollup_state_month", keys: 2, sql: "select state, month, sum(sale) as t from Sales analyze by rollup(state, month)"},
}

// emfTemplates is the EMF-SQL grouping-variable mix.
var emfTemplates = []queryTemplate{
	{name: "tri_state_avg", keys: 1, sql: "select cust, avg(X.sale) as avg_ny, avg(Y.sale) as avg_nj, avg(Z.sale) as avg_ct from Sales group by cust : X, Y, Z such that X.cust = cust and X.state = 'NY', Y.cust = cust and Y.state = 'NJ', Z.cust = cust and Z.state = 'CT'"},
	{name: "sales_window", keys: 2, sql: "select prod, month, count(Z.*) as n from Sales where year = %d group by prod, month : X, Y, Z such that X.prod = prod and X.month = month - 1, Y.prod = prod and Y.month = month + 1, Z.prod = prod and Z.month = month and Z.sale > avg(X.sale) and Z.sale < avg(Y.sale)", yearParam: true},
	{name: "above_own_avg", keys: 1, sql: "select cust, count(X.*) as above from Sales group by cust : X such that X.cust = cust and X.sale > avg(sale)"},
}

// The ingest workload's views and its ad-hoc query. bycust is the first
// group-by template, tri the first EMF template.
var (
	viewNames     = []string{"bycust", "tri"}
	viewTemplates = []queryTemplate{groupbyTemplates[0], emfTemplates[0]}
	adhocTemplate = queryTemplate{name: "state_sum", keys: 1, sql: "select state, sum(sale) as t from Sales group by state"}
)

// workloadTemplates returns the query templates a workload's clients pick
// from: for ingest, the one ad-hoc query its reader sends.
func workloadTemplates(name string) []queryTemplate {
	switch name {
	case "groupby":
		return groupbyTemplates
	case "emf":
		return emfTemplates
	default:
		return []queryTemplate{adhocTemplate}
	}
}

// text renders a request's query text.
func (r request) text(ts []queryTemplate) string {
	t := ts[r.tmpl]
	if t.yearParam {
		return fmt.Sprintf(t.sql, r.year)
	}
	return t.sql
}

// requestStream draws a client's requests in rounds: each round sends
// every template once, in a random order, and a random year to the
// templates that take one. Every template thus keeps an exact share of
// the mix, so the latency percentiles of a mix with very different
// per-template costs do not move with the luck of the draw.
type requestStream struct {
	rng   *rand.Rand
	ts    []queryTemplate
	round []int
}

// newRequestStream seeds stream client of a run; client 0's stream is
// also the sequence the direct and traced phases replay.
func newRequestStream(seed int64, client int, ts []queryTemplate) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(seed*7919 + int64(client))), ts: ts}
}

func (s *requestStream) next() request {
	if len(s.round) == 0 {
		s.round = s.rng.Perm(len(s.ts))
	}
	r := request{tmpl: s.round[0]}
	s.round = s.round[1:]
	if s.ts[r.tmpl].yearParam {
		r.year = 1996 + int64(s.rng.Intn(2))
	}
	return r
}

// allRequests lists every distinct request of a template set: the
// verification pass sends each once.
func allRequests(ts []queryTemplate) []request {
	var out []request
	for i, t := range ts {
		if t.yearParam {
			out = append(out, request{tmpl: i, year: 1996}, request{tmpl: i, year: 1997})
		} else {
			out = append(out, request{tmpl: i})
		}
	}
	return out
}
