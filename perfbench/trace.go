package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: its name ("layer.op"), the span
// that caused it (-1 for a root), and its interval as offsets from the
// tracer's epoch.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. The benchmark's own
// files open spans around the calls they make into each layer; the
// program itself is not instrumented. Only the traced run has one, and
// it is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch), end: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	t.spans[id].end = time.Since(t.epoch)
}

// add records a span whose interval was observed elsewhere (engine
// progress callbacks) and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// durations returns the length in seconds of every closed span named
// name, in the order they were opened.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// layerTimes sums, per span name, the total and the self time of every
// closed span. A span's self time is its duration minus the part of its
// interval that its direct children cover: overlapping children count
// once, and a child reaching outside its parent counts only inside it.
func (t *tracer) layerTimes() (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never closed
		}
		d := s.end - s.start
		total[s.name] += d
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := t.spans[c]
			if cs.end < cs.start {
				continue
			}
			iv = append(iv, [2]time.Duration{max(cs.start, s.start), min(cs.end, s.end)})
		}
		self[s.name] += d - covered(iv)
	}
	return total, self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	curS, curE := time.Duration(0), time.Duration(-1)
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if curE < curS || x[0] > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}
