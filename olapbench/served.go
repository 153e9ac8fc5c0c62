package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serverProc is one mdserve child process listening on loopback.
type serverProc struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once the process has been waited for
	logf   *os.File
}

// startServer spawns mdserve with its default flags, except the listen
// address, serving the CSV file at csvPath as Sales.
func startServer(bin, csvPath, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "Sales="+csvPath)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mdserve: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), logf: logf}
	live.add(p)
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		close(p.exited)
	}()
	return p, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until the server answers 200. mdserve loads
// its CSV tables before it listens, so ready means loaded.
func (p *serverProc) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return errors.New("mdserve exited during start-up")
		default:
		}
		resp, err := c.Get(p.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to close the connection cleanly
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("mdserve not ready after %v", timeout)
}

// liveServers tracks the servers not yet stopped, so that an interrupted
// run stops them too.
type liveServers struct {
	mu    sync.Mutex
	procs map[*serverProc]bool
}

var live = liveServers{procs: map[*serverProc]bool{}}

func (l *liveServers) add(p *serverProc) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.procs[p] = true
}

// take removes p, reporting whether it was still live.
func (l *liveServers) take(p *serverProc) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	ok := l.procs[p]
	delete(l.procs, p)
	return ok
}

// stopAll stops every live server.
func (l *liveServers) stopAll() {
	l.mu.Lock()
	procs := make([]*serverProc, 0, len(l.procs))
	for p := range l.procs {
		procs = append(procs, p)
	}
	l.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited within ten seconds. It returns once the process is gone;
// stopping a stopped server does nothing.
func (p *serverProc) stop() {
	if !live.take(p) {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process already exited
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // the wait below observes the exit either way
		<-p.exited
	}
	p.logf.Close()
}

// peakRSSMB reads the server's high-water resident set (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// httpClient is one closed-loop client: a single keep-alive connection,
// a reusable response buffer.
type httpClient struct {
	c   *http.Client
	tr  *http.Transport
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: time.Minute}, tr: tr}
}

func (h *httpClient) close() { h.tr.CloseIdleConnections() }

// do sends one request and reads the whole response. The latency runs
// from the send to the last byte. The returned body aliases the client's
// buffer and is valid until the next call.
func (h *httpClient) do(method, url string, body []byte) (status int, resp []byte, lat time.Duration, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	r, err := h.c.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(r.Body)
	r.Body.Close()
	lat = time.Since(start)
	return r.StatusCode, h.buf.Bytes(), lat, err
}

// rowCount extracts "row_count" from a /query or /views response without
// decoding the rows: the cheap check of timed responses.
func rowCount(body []byte) (int, bool) {
	const field = `"row_count":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(field):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// tally counts attempted and failed requests across goroutines and
// keeps the first few failure reasons.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	reasons           []string
}

func (t *tally) ok() { t.attempted.Add(1) }

func (t *tally) fail(format string, args ...any) {
	t.attempted.Add(1)
	t.failed.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// phaseLimit says when a measured phase ends: after minDur, once it has
// minSamples samples, and in any case at hardStop.
type phaseLimit struct {
	minDur     time.Duration
	minSamples int
	hardStop   time.Time
}

func (l phaseLimit) done(start time.Time, samples int) bool {
	now := time.Now()
	return now.After(l.hardStop) || (now.Sub(start) >= l.minDur && samples >= l.minSamples)
}

// queryPhase is the outcome of the served /query phase.
type queryPhase struct {
	lat  *latencies // every response
	wall time.Duration
}

// runQueryClients drives the closed-loop /query clients, each
// drawing its own request stream, until lim says stop. round picks the
// streams, so every round of a run sends other requests. Each response
// gets the cheap check: status 200 and the oracle's row count.
func runQueryClients(base string, seed int64, round int, ts []queryTemplate, counts map[request]int, lim phaseLimit, t *tally) queryPhase {
	var (
		total atomic.Int64
		wg    sync.WaitGroup
		lats  = make([]*latencies, clients)
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		lats[c] = newLatencies(len(ts))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := newHTTPClient()
			defer h.close()
			stream := newRequestStream(seed, round*clients+c, ts)
			for !lim.done(start, int(total.Load())) {
				r := stream.next()
				status, body, lat, err := h.do(http.MethodPost, base+"/query", []byte(r.text(ts)))
				lats[c].add(r.tmpl, ms(lat))
				total.Add(1)
				checkRows(t, "query "+ts[r.tmpl].name, status, body, err, counts[r])
			}
		}(c)
	}
	wg.Wait()
	out := queryPhase{lat: newLatencies(len(ts)), wall: time.Since(start)}
	for _, l := range lats {
		out.lat.merge(l)
	}
	return out
}

// checkRows applies the cheap check to one response.
func checkRows(t *tally, what string, status int, body []byte, err error, want int) {
	switch {
	case err != nil:
		t.fail("%s: %v", what, err)
	case status != http.StatusOK:
		t.fail("%s: status %d: %.200s", what, status, body)
	default:
		if n, ok := rowCount(body); !ok || n != want {
			t.fail("%s: %d rows, want %d", what, n, want)
			return
		}
		t.ok()
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// requestJSON sends a request outside any timed phase and decodes a JSON
// reply into out (when non-nil).
func requestJSON(h *httpClient, method, url string, body []byte, out any) error {
	status, resp, _, err := h.do(method, url, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.300s", method, url, status, resp)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(resp, out)
}

// serverStats is the part of GET /stats the per-layer metrics use.
type serverStats struct {
	PlanCache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"plan_cache"`
	Queries struct {
		Shed float64 `json:"shed"`
	} `json:"queries"`
	SharedScans struct {
		Submitted  float64 `json:"submitted"`
		ScansSaved float64 `json:"scans_saved"`
	} `json:"shared_scans"`
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
