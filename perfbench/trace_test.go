package main

import (
	"testing"
	"time"
)

// at builds a tracer from literal intervals in milliseconds.
func at(spans ...span) *tracer {
	t := newTracer()
	for _, s := range spans {
		s.start *= time.Millisecond
		s.end *= time.Millisecond
		t.spans = append(t.spans, s)
	}
	return t
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := at(
		span{"round", -1, 0, 100},   // 0
		span{"exp", 0, 10, 30},      // 1: child of round
		span{"exp", 0, 20, 50},      // 2: overlaps 1; the union 10..50 counts once
		span{"run", 1, 12, 40},      // 3: grandchild reaching past its parent 1
		span{"late", 0, 90, 120},    // 4: reaches past round; only 90..100 counts
		span{"open", 0, 60, -1},     // 5: never closed, ignored
		span{"other", -1, 200, 210}, // 6: a second root
	)
	total, self := tr.layerTimes()
	ms := time.Millisecond
	want := map[string][2]time.Duration{
		// round: 100 minus the union of 10..50 and 90..100.
		"round": {100 * ms, 50 * ms},
		// exp 1 (20 long) loses 12..30 to its child; exp 2 has none.
		"exp": {50 * ms, (20 - 18 + 30) * ms},
		// Grandchildren subtract only from their own parent.
		"run":   {28 * ms, 28 * ms},
		"late":  {30 * ms, 30 * ms},
		"other": {10 * ms, 10 * ms},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, total[name], self[name], w[0], w[1])
		}
	}
	if _, ok := total["open"]; ok {
		t.Error("an unclosed span was counted")
	}
}

func TestCoveredUnion(t *testing.T) {
	iv := func(a, b int) [2]time.Duration { return [2]time.Duration{time.Duration(a), time.Duration(b)} }
	for _, c := range []struct {
		in   [][2]time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[][2]time.Duration{iv(0, 10)}, 10},
		{[][2]time.Duration{iv(5, 8), iv(0, 10)}, 10},              // nested
		{[][2]time.Duration{iv(0, 10), iv(5, 15), iv(20, 25)}, 20}, // overlapping, then disjoint
		{[][2]time.Duration{iv(0, 10), iv(10, 20)}, 20},            // touching
		{[][2]time.Duration{iv(9, 3)}, 0},                          // empty after clipping
	} {
		if got := covered(c.in); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTracerDurations(t *testing.T) {
	live := newTracer()
	root := live.begin("round", -1)
	child := live.begin("exp", root)
	live.end(child)
	live.end(root)
	if d := live.durations("exp"); len(d) != 1 || d[0] < 0 {
		t.Fatalf("durations = %v", d)
	}
}
