package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: p99 needs 1000 samples, p50 needs 20.
const minTail = 10

// percentileSamples is the smallest sample count that supports
// percentile p (0 < p < 1) under the minTail rule.
func percentileSamples(p float64) int {
	return int(math.Ceil(minTail/(1-p) - 1e-9))
}

// percentile returns the nearest-rank p-quantile of xs, and false when
// fewer than minTail samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || len(xs) < percentileSamples(p) {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], true
}

// latencies holds a phase's samples in ms, in arrival order, with the
// request kind (template, view or ad-hoc query) of each.
type latencies struct {
	all    []float64
	kind   []int
	byKind [][]float64
}

func newLatencies(kinds int) *latencies {
	return &latencies{byKind: make([][]float64, kinds)}
}

func (l *latencies) add(kind int, v float64) {
	l.all = append(l.all, v)
	l.kind = append(l.kind, kind)
	l.byKind[kind] = append(l.byKind[kind], v)
}

func (l *latencies) merge(o *latencies) {
	for i, v := range o.all {
		l.add(o.kind[i], v)
	}
}

// typical is the geometric mean, over the request kinds with samples, of
// each kind's median. Every kind weighs the same however often it is sent,
// and the figure does not jump when the pooled median would fall between
// two kinds' latencies.
func (l *latencies) typical() float64 {
	logSum, n := 0.0, 0
	for _, xs := range l.byKind {
		if len(xs) > 0 {
			logSum += math.Log(median(xs))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// views returns the samples of the view reads (every kind but the
// ad-hoc query) of an ingest reader.
func (l *latencies) views() []float64 {
	var out []float64
	for _, xs := range l.byKind[:adhocKind] {
		out = append(out, xs...)
	}
	return out
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), 0 for none. Per-layer figures use it without the
// sample rule: they summarize a traced run, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
