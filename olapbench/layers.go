package main

import (
	"sort"
	"strings"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayerMetrics are the traced run's figures, in BENCHMARK.json order.
// Times and sizes are medians per request over the requests a layer
// serves; a layer no request of the workload reaches reports 0.
var perLayerMetrics = []metricDef{
	{"cube.base_values_ms", "ms"},
	{"cube.groups_per_row", "ratio"},
	{"cube.alloc_kb", "KiB"},
	{"core.compile_ms", "ms"},
	{"core.assemble_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.detail_scans", "count"},
	{"core.tuples_scanned", "count"},
	{"core.pair_match_ratio", "ratio"},
	{"core.boxed_elem_share", "ratio"},
	{"core.transposed_chunk_share", "ratio"},
	{"core.inc_append_ms", "ms"},
	{"core.inc_snapshot_ms", "ms"},
	{"core.arena_kb", "KiB"},
	{"core.alloc_kb", "KiB"},
	{"table.read_csv_ms", "ms"},
	{"table.alloc_kb", "KiB"},
	{"sqlext.parse_us", "us"},
	{"sqlext.translate_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"optimizer.exec_self_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.shared_scan_saved_ratio", "ratio"},
	{"server.shed", "count"},
	{"trace.overhead_pct", "%"},
}

// reqFigures are one traced request's per-layer sums.
type reqFigures struct {
	parse, translate, optimize float64 // ms, span durations
	front                      float64 // ms, self time of the three above
	execSelf                   float64 // ms, optimizer plan nodes
	cube, cubeAlloc            float64
	bIn, bOut                  int
	compile, coreAlloc         float64
	incAppend, incSnapshot     float64
	readCSV, tableAlloc        float64
	total                      float64 // ms, self time of every layer span
	server                     float64 // ms, ServeHTTP
	has                        map[string]bool
}

// layerFigures reduces a traced run to the per-layer metrics.
// directTypical is the untraced direct phase's typical latency, which the
// tracing overhead is measured against: the traced requests' layer time
// reduced the same way. st is the served phase's GET /stats.
func layerFigures(tr *tracer, directTypical float64, st serverStats) map[string]float64 {
	selfNs, selfAlloc := selfTimes(tr.spans)
	figs := make([]reqFigures, len(tr.reqs))
	for i := range figs {
		figs[i].has = map[string]bool{}
	}
	for i, s := range tr.spans {
		if s.Req < 0 || s.Name == "request" {
			continue
		}
		f := &figs[s.Req]
		dur := float64(s.End-s.Start) / 1e6
		self := float64(selfNs[i]) / 1e6
		kb := float64(selfAlloc[i]) / 1024
		if s.Name == "server.ServeHTTP" {
			f.server += dur
			f.has["server"] = true
			continue
		}
		f.total += self
		if strings.HasPrefix(s.Name, "core.") {
			f.coreAlloc += kb
			f.has["core"] = true
		}
		switch s.Name {
		case "sqlext.Parse":
			f.parse += dur
			f.front += self
			f.has["front"] = true
		case "sqlext.Translate":
			f.translate += dur
			f.front += self
		case "optimizer.Optimize":
			f.optimize += dur
			f.front += self
		case "cube.BaseValues":
			f.cube += self
			f.cubeAlloc += kb
			f.bIn += s.InRows
			f.bOut += s.Out
			f.has["cube"] = true
		case "core.Compile":
			f.compile += dur
		case "core.Incremental.Append":
			f.incAppend += dur
			f.has["append"] = true
		case "core.Incremental.Snapshot":
			f.incSnapshot += dur
			f.has["snapshot"] = true
		case "table.ReadCSV":
			f.readCSV += dur
			f.tableAlloc += kb
			f.has["table"] = true
		default:
			if strings.HasPrefix(s.Name, "optimizer.") {
				f.execSelf += self
				f.has["exec"] = true
			}
		}
	}

	lists := map[string][]float64{}
	add := func(name string, v float64) { lists[name] = append(lists[name], v) }
	readTotals := map[string][]float64{}
	for i, f := range figs {
		req := tr.reqs[i]
		if f.has["front"] {
			add("sqlext.parse_us", f.parse*1000)
			add("sqlext.translate_us", f.translate*1000)
			add("optimizer.optimize_us", f.optimize*1000)
		}
		if f.has["exec"] {
			add("optimizer.exec_self_ms", f.execSelf)
		}
		if f.has["cube"] {
			add("cube.base_values_ms", f.cube)
			add("cube.alloc_kb", f.cubeAlloc)
			add("cube.groups_per_row", ratio(float64(f.bOut), float64(f.bIn)))
		}
		if f.has["core"] {
			add("core.alloc_kb", f.coreAlloc)
		}
		if f.has["append"] && req.kind == "append" {
			add("core.inc_append_ms", f.incAppend)
		}
		if f.has["snapshot"] {
			add("core.inc_snapshot_ms", f.incSnapshot)
		}
		if f.has["table"] {
			add("table.read_csv_ms", f.readCSV)
			add("table.alloc_kb", f.tableAlloc)
		}
		if len(req.stats) > 0 {
			add("core.compile_ms", f.compile)
			addStats(add, req)
		}
		if f.has["server"] {
			lib := f.total
			if req.cached {
				lib -= f.front
			}
			add("server.self_ms", f.server-lib)
		}
		if req.kind == "query" || req.kind == "view" {
			readTotals[req.label] = append(readTotals[req.label], f.total)
		}
	}

	out := map[string]float64{}
	for _, m := range perLayerMetrics {
		out[m.name] = median(lists[m.name])
	}
	out["server.plan_cache_hit_ratio"] = ratio(st.PlanCache.Hits, st.PlanCache.Hits+st.PlanCache.Misses)
	out["server.shared_scan_saved_ratio"] = ratio(st.SharedScans.ScansSaved, st.SharedScans.Submitted)
	out["server.shed"] = st.Queries.Shed
	if directTypical > 0 && len(readTotals) > 0 {
		labels := make([]string, 0, len(readTotals))
		for l := range readTotals {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		traced := newLatencies(len(labels))
		for i, l := range labels {
			for _, v := range readTotals[l] {
				traced.add(i, v)
			}
		}
		out["trace.overhead_pct"] = (traced.typical() - directTypical) / directTypical * 100
	}
	return out
}

// addStats adds a request's MD-join counters, summed over its MD-joins.
func addStats(add func(string, float64), req traceRequest) {
	var scan, assemble, arena int64
	var scans, tuples, tested, matched, prebuilt, transposed int
	var typed, boxed int64
	for _, s := range req.stats {
		scan += s.ScanNanos
		assemble += s.AssembleNanos
		arena += s.ArenaBytes
		scans += s.DetailScans
		tuples += s.TuplesScanned
		tested += s.PairsTested
		matched += s.PairsMatched
		prebuilt += s.ChunksPrebuilt
		transposed += s.ChunksTransposed
		for _, p := range s.Phases {
			typed += p.TypedElems
			boxed += p.BoxedElems
		}
	}
	add("core.scan_ms", float64(scan)/1e6)
	add("core.assemble_ms", float64(assemble)/1e6)
	add("core.arena_kb", float64(arena)/1024)
	add("core.detail_scans", float64(scans))
	add("core.tuples_scanned", float64(tuples))
	add("core.pair_match_ratio", ratio(float64(matched), float64(tested)))
	add("core.boxed_elem_share", ratio(float64(boxed), float64(typed+boxed)))
	add("core.transposed_chunk_share", ratio(float64(transposed), float64(prebuilt+transposed)))
}
