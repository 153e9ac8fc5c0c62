package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"mdjoin/internal/core"
	"mdjoin/internal/optimizer"
	"mdjoin/internal/table"
)

// span is one timed call into a layer. Spans nest by Parent (-1 for a
// root); spans of one request share Req (-1 outside any request).
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"` // monotonic, since the tracer started
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated while open
	InRows int    `json:"in_rows,omitempty"`
	Out    int    `json:"out_rows,omitempty"`
}

// traceRequest is what the traced run knows about one request beyond
// its spans.
type traceRequest struct {
	kind   string        // "query", "view" or "append"
	label  string        // template or view name
	stats  []*core.Stats // one per MD-join evaluated
	cached bool          // the in-process server reused a prepared plan
}

// tracer records spans in memory from a single goroutine. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int32
	req    int32
	reqs   []traceRequest
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:  time.Now(),
		req:    -1,
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// startRequest opens a new request; later spans belong to it.
func (t *tracer) startRequest(kind, label string) {
	if t == nil {
		return
	}
	t.req = int32(len(t.reqs))
	t.reqs = append(t.reqs, traceRequest{kind: kind, label: label})
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: t.req, Alloc: t.allocated()})
	t.spans[id].Start = time.Since(t.epoch).Nanoseconds()
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.epoch).Nanoseconds()
	s.Alloc = t.allocated() - s.Alloc
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("olapbench: span %s closed out of order", s.Name))
	}
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) rows(id int32, in, out int) {
	if t != nil {
		t.spans[id].InRows, t.spans[id].Out = in, out
	}
}

func (t *tracer) addStats(st *core.Stats) {
	if t != nil && t.req >= 0 {
		t.reqs[t.req].stats = append(t.reqs[t.req].stats, st)
	}
}

func (t *tracer) setCached(cached bool) {
	if t != nil && t.req >= 0 {
		t.reqs[t.req].cached = cached
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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

// selfTimes returns each span's self time and self allocation: its own
// figure minus what its children cover. Child intervals are clipped to
// the parent and merged, so overlapping children are not subtracted
// twice.
func selfTimes(spans []span) (selfNs []int64, selfAlloc []int64) {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	selfNs = make([]int64, len(spans))
	selfAlloc = make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		alloc := int64(s.Alloc)
		for _, k := range kids[i] {
			c := spans[k]
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
			alloc -= int64(c.Alloc)
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		selfNs[i] = s.End - s.Start - covered
		selfAlloc[i] = max(alloc, 0)
	}
	return selfNs, selfAlloc
}

// execPlan executes an optimized plan, through traced wrapper nodes when
// tr is non-nil.
func execPlan(p optimizer.Plan, cat optimizer.Catalog, tr *tracer) (*table.Table, error) {
	if tr == nil {
		return p.Execute(cat)
	}
	w, err := traceWrap(p, tr)
	if err != nil {
		return nil, err
	}
	return w.Execute(cat)
}

// traceWrap rebuilds a plan with every node wrapped in a span. BaseValues
// nodes record a cube span around the base-values builder; MD-join nodes
// run core.Compile and Bundle.Run in place of core.Eval, with a Stats
// attached; every other node records an optimizer span.
func traceWrap(p optimizer.Plan, tr *tracer) (optimizer.Plan, error) {
	switch n := p.(type) {
	case *optimizer.BaseValues:
		in, err := traceWrap(n.Input, tr)
		if err != nil {
			return nil, err
		}
		return &tracedBaseValues{node: n, input: in, tr: tr}, nil
	case *optimizer.MDJoin:
		b, err := traceWrap(n.Base, tr)
		if err != nil {
			return nil, err
		}
		d, err := traceWrap(n.Detail, tr)
		if err != nil {
			return nil, err
		}
		return &tracedMDJoin{node: n, base: b, detail: d, tr: tr}, nil
	}
	kids := p.Children()
	wrapped := make([]optimizer.Plan, len(kids))
	for i, k := range kids {
		w, err := traceWrap(k, tr)
		if err != nil {
			return nil, err
		}
		wrapped[i] = w
	}
	inner, err := withChildren(p, wrapped)
	if err != nil {
		return nil, err
	}
	name := "optimizer." + strings.TrimPrefix(fmt.Sprintf("%T", p), "*optimizer.")
	return &tracedNode{name: name, inner: inner, tr: tr}, nil
}

// withChildren copies a plan node with its inputs replaced.
func withChildren(p optimizer.Plan, k []optimizer.Plan) (optimizer.Plan, error) {
	switch n := p.(type) {
	case *optimizer.Scan, *optimizer.Literal:
		return n, nil
	case *optimizer.Select:
		return &optimizer.Select{Input: k[0], Pred: n.Pred}, nil
	case *optimizer.Project:
		return &optimizer.Project{Input: k[0], Cols: n.Cols, Distinct: n.Distinct}, nil
	case *optimizer.Sort:
		return &optimizer.Sort{Input: k[0], Keys: n.Keys}, nil
	case *optimizer.Limit:
		return &optimizer.Limit{Input: k[0], N: n.N}, nil
	case *optimizer.GroupBy:
		return &optimizer.GroupBy{Input: k[0], Keys: n.Keys, Aggs: n.Aggs}, nil
	case *optimizer.Union:
		return &optimizer.Union{Inputs: k}, nil
	case *optimizer.Join:
		return &optimizer.Join{Left: k[0], Right: k[1], LAlias: n.LAlias, RAlias: n.RAlias, On: n.On, Kind: n.Kind}, nil
	}
	return nil, fmt.Errorf("olapbench: cannot trace plan node %T", p)
}

// tracedNode records a span around one optimizer node.
type tracedNode struct {
	name  string
	inner optimizer.Plan
	tr    *tracer
}

func (n *tracedNode) Children() []optimizer.Plan { return n.inner.Children() }
func (n *tracedNode) Describe() string           { return n.inner.Describe() }
func (n *tracedNode) Execute(cat optimizer.Catalog) (*table.Table, error) {
	id := n.tr.begin(n.name)
	res, err := n.inner.Execute(cat)
	n.tr.end(id)
	return res, err
}

// tracedBaseValues runs its input, then the node's base-values builder
// over the materialized input inside a cube span.
type tracedBaseValues struct {
	node  *optimizer.BaseValues
	input optimizer.Plan
	tr    *tracer
}

func (n *tracedBaseValues) Children() []optimizer.Plan { return []optimizer.Plan{n.input} }
func (n *tracedBaseValues) Describe() string           { return n.node.Describe() }
func (n *tracedBaseValues) Execute(cat optimizer.Catalog) (*table.Table, error) {
	in, err := n.input.Execute(cat)
	if err != nil {
		return nil, err
	}
	bv := &optimizer.BaseValues{Input: &optimizer.Literal{Table: in}, Op: n.node.Op, Dims: n.node.Dims, Sets: n.node.Sets}
	id := n.tr.begin("cube.BaseValues")
	res, err := bv.Execute(cat)
	n.tr.end(id)
	if err != nil {
		return nil, err
	}
	n.tr.rows(id, in.Len(), res.Len())
	return res, nil
}

// tracedMDJoin evaluates an MD-join node as MDJoin.Execute does without
// a shared-scan coordinator, core.Eval's compile and run as two spans.
type tracedMDJoin struct {
	node         *optimizer.MDJoin
	base, detail optimizer.Plan
	tr           *tracer
}

func (n *tracedMDJoin) Children() []optimizer.Plan { return []optimizer.Plan{n.base, n.detail} }
func (n *tracedMDJoin) Describe() string           { return n.node.Describe() }
func (n *tracedMDJoin) Execute(cat optimizer.Catalog) (*table.Table, error) {
	id := n.tr.begin("optimizer.MDJoin")
	defer n.tr.end(id)
	b, err := n.base.Execute(cat)
	if err != nil {
		return nil, err
	}
	r, err := n.detail.Execute(cat)
	if err != nil {
		return nil, err
	}
	opt := n.node.Opt
	if opt.RAlias == "" {
		opt.RAlias = n.node.DetailName
	}
	st := &core.Stats{}
	opt.Stats = st
	c := n.tr.begin("core.Compile")
	bu, err := core.Compile(b, r, n.node.Phases, opt)
	n.tr.end(c)
	if err != nil {
		return nil, err
	}
	run := n.tr.begin("core.Run")
	res, err := bu.Run()
	n.tr.end(run)
	n.tr.addStats(st)
	return res, err
}
