// Command olapbench is the repository's end-to-end benchmark: served OLAP
// over the real mdserve binary, the same requests in-process through
// sqlext, and a traced in-process replay that times each layer. See
// README.md for the workloads and metrics.
//
// Run it through run.sh, which builds mdserve and this program first:
//
//	bash olapbench/run.sh --workload groupby --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is the result object; the line before
// it is the full record (host facts, sample counts, extra metrics), the
// input of benchdiff.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"mdjoin/internal/optimizer"
	"mdjoin/internal/table"
)

// Run shape. A run sets mdserve up setupRepeats times; the last rounds
// instances each serve one round of the served phase, and after each a
// block of the direct phase runs with the server gone, so both phases
// span the whole run. The served rounds share servedShare of --seconds
// and the direct blocks the rest (an ingest round is one whole append and
// read stream, and a direct block a third of it). Both phases run on
// until they hold the samples p99 needs. A traced run replays for
// traceShare of --seconds more. No phase runs past runBudget.
const (
	setupRepeats = 7
	rounds       = 3
	clients      = 2
	servedShare  = 0.6
	traceShare   = 0.25
	runBudget    = 150 * time.Second
	recordSchema = "olapbench/1"
)

// endToEndMetrics are the metrics a --trace 0 run reports, in
// BENCHMARK.json order. On ingest, "query" means the reader's requests:
// view reads and ad-hoc queries.
var endToEndMetrics = []metricDef{
	{"query_p50_gm_ms", "ms"},
	{"query_qps", "1/s"},
	{"direct_p50_gm_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

type config struct {
	workload, mdserve, workdir string
	seed                       int64
	seconds                    int
	trace                      bool
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "groupby, emf or ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 40, "measured seconds of a run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run, which reports the per-layer metrics")
	flag.StringVar(&cfg.mdserve, "mdserve", "", "path of the mdserve binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for generated files")
	flag.Parse()
	cfg.trace = trace == 1
	// An interrupted run stops its servers before it exits.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		live.stopAll()
		os.Exit(1)
	}()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "olapbench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported figure.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// record is the full result of one run.
type record struct {
	Schema    string                 `json:"schema"`
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Host      hostFacts              `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	Extra     map[string]metricValue `json:"extra"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// put records a figure.
func put(m map[string]metricValue, name, unit string, v float64, n int) {
	m[name] = metricValue{Value: v, Unit: unit, Samples: n}
}

// putLatency records a latency percentile, enforcing the sample rule.
func putLatency(m map[string]metricValue, name string, lat []float64, p float64) error {
	v, ok := percentile(lat, p)
	if !ok {
		return fmt.Errorf("%s: %d samples cannot support p%g", name, len(lat), p*100)
	}
	put(m, name, "ms", v, len(lat))
	return nil
}

// putKindMedians records each request kind's median latency of a phase,
// as <phase>.<kind>_p50_ms.
func putKindMedians(m map[string]metricValue, phase string, kinds []string, lat *latencies) {
	for i, k := range kinds {
		put(m, phase+"."+k+"_p50_ms", "ms", median(lat.byKind[i]), len(lat.byKind[i]))
	}
}

// run is one benchmark run: generate the inputs, serve them, replay them
// in-process, optionally trace them, and print the result.
func run(cfg config) error {
	hardStop := time.Now().Add(runBudget)
	switch cfg.workload {
	case "groupby", "emf", "ingest":
	default:
		return fmt.Errorf("unknown workload %q (want groupby, emf or ingest)", cfg.workload)
	}
	if cfg.mdserve == "" || cfg.seconds < 1 {
		return errors.New("need -mdserve and a positive -seconds")
	}
	ingest := cfg.workload == "ingest"
	w := &workloadRun{cfg: cfg, ts: workloadTemplates(cfg.workload), kinds: readKinds, t: &tally{},
		measure: time.Duration(cfg.seconds) * time.Second, hardStop: hardStop}
	if !ingest {
		w.kinds = templateNames(w.ts)
	}

	d, err := newDataset(cfg.seed, ingest)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w.csvPath = filepath.Join(dir, "sales.csv")
	if err := os.WriteFile(w.csvPath, d.csv, 0o644); err != nil {
		return err
	}
	if ingest {
		w.e, err = newIngestExpect(d)
	} else {
		w.o = newOracle(d.sales, w.ts)
		w.counts, err = w.o.rowCounts()
	}
	if err != nil {
		return err
	}

	rec := record{
		Schema: recordSchema, Workload: cfg.workload, Trace: cfg.trace, Seconds: cfg.seconds,
		Host:     collectHost(cfg.seed),
		EndToEnd: map[string]metricValue{}, Extra: map[string]metricValue{},
	}
	sales, err := table.ReadCSV(bytes.NewReader(d.csv))
	if err != nil {
		return err
	}
	st, err := w.measureRounds(&rec, sales)
	if err != nil {
		return err
	}
	if cfg.trace {
		layers, err := w.traced(sales, rec.EndToEnd["direct_p50_gm_ms"].Value, st)
		if err != nil {
			return err
		}
		rec.PerLayer = map[string]metricValue{}
		for _, m := range perLayerMetrics {
			put(rec.PerLayer, m.name, m.unit, layers[m.name], 0)
		}
	}

	rec.Attempted, rec.Failed = w.t.attempted.Load(), w.t.failed.Load()
	rec.Failures = w.t.reasons
	rec.Correct = rec.Failed == 0
	put(rec.Extra, "failed_share", "ratio", ratio(float64(rec.Failed), float64(rec.Attempted)), int(rec.Attempted))
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "olapbench: failed:", f)
	}
	return emit(cfg, rec)
}

// workloadRun carries one run's inputs, expectations and tally.
type workloadRun struct {
	cfg      config
	csvPath  string
	ts       []queryTemplate
	kinds    []string // request kinds of the reads: templates, or views and the ad-hoc query
	o        *oracle
	counts   map[request]int
	e        *ingestExpect
	t        *tally
	measure  time.Duration
	hardStop time.Time
}

// setUp starts mdserve over the run's CSV file and waits until it serves,
// with the ingest views built. It returns the server and the seconds the
// set-up took.
func (w *workloadRun) setUp() (*serverProc, float64, error) {
	start := time.Now()
	srv, err := startServer(w.cfg.mdserve, w.csvPath, filepath.Join(filepath.Dir(w.csvPath), "mdserve.log"))
	if err != nil {
		return nil, 0, err
	}
	err = srv.waitReady(30 * time.Second)
	if err == nil && w.e != nil {
		err = createViews(srv.base)
	}
	if err != nil {
		srv.stop()
		return nil, 0, err
	}
	return srv, time.Since(start).Seconds(), nil
}

// measureRounds runs the served and direct phases: setupRepeats set-ups,
// the last rounds of which each serve a round and are followed by a
// direct block. Latencies and throughput pool every round, so each
// figure averages over the whole run; set-up time and peak RSS are
// medians over instances. It returns the servers' GET /stats counters
// summed over rounds.
func (w *workloadRun) measureRounds(rec *record, sales *table.Table) (serverStats, error) {
	var (
		sum                    serverStats
		setups, rss            []float64
		servedWall, appendWall time.Duration
		appends                []float64
		reads                  = newLatencies(len(w.kinds))
		direct                 = newLatencies(len(w.kinds))
	)
	dr, err := w.newDirectReplay(sales)
	if err != nil {
		return sum, err
	}
	for i := 0; i < setupRepeats; i++ {
		srv, secs, err := w.setUp()
		if err != nil {
			return sum, err
		}
		setups = append(setups, secs)
		r := i - (setupRepeats - rounds)
		if r < 0 {
			srv.stop()
			continue
		}
		res, err := w.serveRound(srv, r)
		srv.stop()
		if err != nil {
			return sum, err
		}
		reads.merge(res.reads)
		appends = append(appends, res.appends...)
		servedWall += res.wall
		appendWall += res.appendWall
		rss = append(rss, res.rss)
		sum.PlanCache.Hits += res.st.PlanCache.Hits
		sum.PlanCache.Misses += res.st.PlanCache.Misses
		sum.Queries.Shed += res.st.Queries.Shed
		sum.SharedScans.Submitted += res.st.SharedScans.Submitted
		sum.SharedScans.ScansSaved += res.st.SharedScans.ScansSaved

		blk, err := dr.block(r)
		if err != nil {
			return sum, err
		}
		direct.merge(blk)
	}
	put(rec.EndToEnd, "setup_s", "s", median(setups), len(setups))
	put(rec.EndToEnd, "query_p50_gm_ms", "ms", reads.typical(), len(reads.all))
	put(rec.EndToEnd, "query_qps", "1/s", float64(len(reads.all))/servedWall.Seconds(), len(reads.all))
	put(rec.EndToEnd, "peak_rss_mb", "MiB", median(rss), len(rss))
	put(rec.EndToEnd, "direct_p50_gm_ms", "ms", direct.typical(), len(direct.all))
	// The p99s are recorded but not gated: they follow the host's spells
	// of CPU steal more than the program (over ten seeds their quartiles
	// lay up to 20 % of the median apart served, 38 % direct).
	for _, l := range []struct {
		name string
		lat  []float64
	}{{"query_p99_ms", reads.all}, {"direct_p99_ms", direct.all}} {
		if err := putLatency(rec.Extra, l.name, l.lat, 0.99); err != nil {
			return sum, err
		}
	}
	putKindMedians(rec.Extra, "query", w.kinds, reads)
	putKindMedians(rec.Extra, "direct", w.kinds, direct)
	if w.e != nil {
		put(rec.Extra, "ingest_rows_per_s", "1/s", float64(len(appends)*deltaRows)/appendWall.Seconds(), len(appends))
		for _, l := range []struct {
			name string
			lat  []float64
			q    float64
		}{
			{"append_p50_ms", appends, 0.5}, {"append_p99_ms", appends, 0.99},
			{"view_read_p50_ms", reads.views(), 0.5}, {"view_read_p99_ms", reads.views(), 0.99},
		} {
			if err := putLatency(rec.Extra, l.name, l.lat, l.q); err != nil {
				return sum, err
			}
		}
	}
	return sum, nil
}

// roundResult is what one served round measured.
type roundResult struct {
	reads      *latencies
	appends    []float64 // ms, ingest only
	wall       time.Duration
	appendWall time.Duration
	rss        float64
	st         serverStats
}

// serveRound drives one server instance for a round, then, outside the
// timed part, reads its peak RSS and /stats and checks its answers in
// full.
func (w *workloadRun) serveRound(srv *serverProc, r int) (roundResult, error) {
	var res roundResult
	if w.e != nil {
		p := runIngestClients(srv.base, w.e, w.hardStop, w.t)
		res.reads, res.appends, res.wall, res.appendWall = p.reads, p.appendLat, p.readWall, p.appendWall
		if err := verifyIngest(srv.base, w.e, p, w.t); err != nil {
			return res, err
		}
	} else {
		lim := phaseLimit{
			minDur:     time.Duration(servedShare * float64(w.measure) / rounds),
			minSamples: (percentileSamples(0.99) + rounds - 1) / rounds,
			hardStop:   w.hardStop,
		}
		p := runQueryClients(srv.base, w.cfg.seed, r, w.ts, w.counts, lim, w.t)
		res.reads, res.wall = p.lat, p.wall
	}
	var err error
	if res.rss, err = srv.peakRSSMB(); err != nil {
		return res, err
	}
	h := newHTTPClient()
	defer h.close()
	if err := requestJSON(h, http.MethodGet, srv.base+"/stats", nil, &res.st); err != nil {
		return res, err
	}
	if w.o != nil {
		verifyServed(h, srv.base, w.o, w.t)
	}
	return res, nil
}

// directReplay is the direct phase: the workload's requests in-process
// through the library, one caller, no server running, run in rounds
// blocks between the served rounds.
type directReplay struct {
	w      *workloadRun
	cat    optimizer.Catalog
	stream *requestStream // query workloads: client 0's sequence
	lib    *libIngest     // ingest: the in-process table and views
}

func (w *workloadRun) newDirectReplay(sales *table.Table) (*directReplay, error) {
	dr := &directReplay{w: w, cat: optimizer.Catalog{"Sales": sales}}
	if w.e == nil {
		dr.stream = newRequestStream(w.cfg.seed, 0, w.ts)
		return dr, nil
	}
	var err error
	dr.lib, err = newLibIngest(sales, nil)
	return dr, err
}

// block runs direct block r of rounds. A query workload's block lasts its
// share of --seconds, and until the blocks hold the samples p99 needs; the
// last block also checks every distinct request in full. An ingest block
// replays a third of the append and read stream.
func (dr *directReplay) block(r int) (*latencies, error) {
	w := dr.w
	if w.e != nil {
		n := len(w.e.d.payloads)
		return replayIngest(dr.lib, w.e, r*n/rounds, (r+1)*n/rounds, nil, nil, w.t)
	}
	lim := phaseLimit{
		minDur:     (w.measure - time.Duration(servedShare*float64(w.measure))) / rounds,
		minSamples: (percentileSamples(0.99) + rounds - 1) / rounds,
		hardStop:   w.hardStop,
	}
	lat := replayQueries(dr.cat, w.ts, dr.stream, w.counts, lim, nil, nil, w.t)
	if r == rounds-1 {
		verifyQueries(dr.cat, w.o, w.t)
	}
	return lat, nil
}

// verifyServed sends every distinct request once, outside the timed
// phase, and compares the full answer with the oracle.
func verifyServed(h *httpClient, base string, o *oracle, t *tally) {
	for _, r := range allRequests(o.ts) {
		name := o.ts[r.tmpl].name
		want, err := o.answer(r)
		if err != nil {
			t.fail("oracle: %v", err)
			continue
		}
		status, body, _, err := h.do(http.MethodPost, base+"/query", []byte(r.text(o.ts)))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		var got answer
		if err == nil {
			got, err = answerFromJSON(body, o.ts[r.tmpl].keys)
		}
		if err == nil {
			err = compareAnswers(got, want)
		}
		if err != nil {
			t.fail("served %s %d: %v", name, r.year, err)
		} else {
			t.ok()
		}
	}
}

// traced replays the workload in-process with spans and reduces them to
// the per-layer metrics. The spans are written under the work directory
// when the replay ends.
func (w *workloadRun) traced(sales *table.Table, directTypical float64, st serverStats) (map[string]float64, error) {
	srv, err := newTraceServer(sales, w.e != nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if w.e != nil {
		lib, err := newLibIngest(sales, tr)
		if err != nil {
			return nil, err
		}
		if _, err := replayIngest(lib, w.e, 0, len(w.e.d.payloads), tr, srv, w.t); err != nil {
			return nil, err
		}
	} else {
		cat := optimizer.Catalog{"Sales": sales}
		lim := phaseLimit{minDur: time.Duration(traceShare * float64(w.measure)), minSamples: 4 * len(w.ts), hardStop: w.hardStop}
		replayQueries(cat, w.ts, newRequestStream(w.cfg.seed, 0, w.ts), w.counts, lim, tr, srv, w.t)
	}
	path := filepath.Join(w.cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.cfg.workload, w.cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	return layerFigures(tr, directTypical, st), nil
}

// emit prints the full record, then the result line: every end-to-end
// metric, or with --trace 1 every per-layer metric.
func emit(cfg config, rec record) error {
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, src := endToEndMetrics, rec.EndToEnd
	if cfg.trace {
		defs, src = perLayerMetrics, rec.PerLayer
	}
	for _, m := range defs {
		v, ok := src[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		metrics[m.name] = value{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, line)
	return nil
}

func templateNames(ts []queryTemplate) []string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.name
	}
	return names
}
