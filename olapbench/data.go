package main

import (
	"bytes"
	"fmt"
	"strconv"

	"mdjoin/internal/table"
	"mdjoin/internal/workload"
)

// Data sizes. Every workload serves the same Sales relation; ingest
// additionally appends deltaBatches batches of deltaRows rows while its
// reader makes readSteps view reads, with an ad-hoc query every
// adhocEvery-th step.
const (
	salesRows    = 30000
	deltaBatches = 1000
	deltaRows    = 100
	readSteps    = 1000
	adhocEvery   = 20
)

// salesConfig is the generator setting of the benchmark's Sales data:
// 1000 zipfian customers (s = 1.1), 100 products, 1996–97, 10 states.
func salesConfig(rows int, seed int64) workload.SalesConfig {
	return workload.SalesConfig{
		Rows:      rows,
		Customers: 1000,
		Products:  100,
		Years:     2,
		FirstYear: 1996,
		States:    10,
		ZipfS:     1.1,
		Seed:      seed,
	}
}

// deltaSeed derives the generator seed of append batch i from the run
// seed, so every batch differs and the same run seed gives the same
// batches.
func deltaSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i) + 1
}

// sale is one Sales row as plain Go values: the oracle computes over
// these, never over the engine's table types.
type sale struct {
	cust, prod, day, month, year int64
	state                        string
	amount                       float64
}

// genSales generates rows Sales rows for seed.
func genSales(rows int, seed int64) ([]sale, error) {
	return salesOf(workload.Sales(salesConfig(rows, seed)))
}

// salesOf copies a generated Sales table into plain values.
func salesOf(t *table.Table) ([]sale, error) {
	want := []string{"cust", "prod", "day", "month", "year", "state", "sale"}
	for i, n := range want {
		if t.Schema.ColIndex(n) != i {
			return nil, fmt.Errorf("olapbench: unexpected Sales schema %v", t.Schema.Names())
		}
	}
	out := make([]sale, t.Len())
	for i, r := range t.Rows {
		out[i] = sale{
			cust: r[0].AsInt(), prod: r[1].AsInt(), day: r[2].AsInt(),
			month: r[3].AsInt(), year: r[4].AsInt(),
			state: r[5].AsString(), amount: r[6].AsFloat(),
		}
	}
	return out, nil
}

// salesCSV renders rows as CSV with a header. Amounts always carry a
// decimal point, so the server parses every sale as a float.
func salesCSV(rows []sale) []byte {
	var b bytes.Buffer
	b.Grow(32 * (len(rows) + 1))
	b.WriteString("cust,prod,day,month,year,state,sale\n")
	var num []byte
	for _, r := range rows {
		num = strconv.AppendInt(num[:0], r.cust, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, r.prod, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, r.day, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, r.month, 10)
		num = append(num, ',')
		num = strconv.AppendInt(num, r.year, 10)
		num = append(num, ',')
		num = append(num, r.state...)
		num = append(num, ',')
		start := len(num)
		num = strconv.AppendFloat(num, r.amount, 'f', -1, 64)
		if bytes.IndexByte(num[start:], '.') < 0 {
			num = append(num, ".0"...)
		}
		num = append(num, '\n')
		b.Write(num)
	}
	return b.Bytes()
}

// dataset is one run's inputs: the initial Sales rows and, for ingest,
// the append batches with their CSV payloads.
type dataset struct {
	sales    []sale
	csv      []byte
	deltas   [][]sale
	payloads [][]byte
}

// newDataset generates the run's inputs from seed.
func newDataset(seed int64, withDeltas bool) (*dataset, error) {
	rows, err := genSales(salesRows, seed)
	if err != nil {
		return nil, err
	}
	d := &dataset{sales: rows, csv: salesCSV(rows)}
	if !withDeltas {
		return d, nil
	}
	d.deltas = make([][]sale, deltaBatches)
	d.payloads = make([][]byte, deltaBatches)
	for i := range d.deltas {
		if d.deltas[i], err = genSales(deltaRows, deltaSeed(seed, i)); err != nil {
			return nil, err
		}
		d.payloads[i] = salesCSV(d.deltas[i])
	}
	return d, nil
}

// prefix returns the initial rows followed by the first k append
// batches: the Sales relation after k appends.
func (d *dataset) prefix(k int) []sale {
	out := make([]sale, 0, len(d.sales)+k*deltaRows)
	out = append(out, d.sales...)
	for _, b := range d.deltas[:k] {
		out = append(out, b...)
	}
	return out
}
