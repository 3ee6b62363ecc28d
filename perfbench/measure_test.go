package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the reader must sort
		}
		return xs
	}
	if got := samplesForTail(0.99); got != 1000 {
		t.Fatalf("samplesForTail(0.99) = %d, want 1000", got)
	}
	if got := samplesForTail(0.5); got != 20 {
		t.Fatalf("samplesForTail(0.5) = %d, want 20", got)
	}
	v, ok := tailPercentile(ramp(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990 with ten beyond", v, ok)
	}
	if _, ok := tailPercentile(ramp(999), 0.99); ok {
		t.Fatal("p99 of 999 samples leaves nine beyond it but was accepted")
	}
	if v, ok := tailPercentile(ramp(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v (ok %v), want 10", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples was accepted")
	}
}

func TestMedianOfUnits(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Fatalf("median of nothing = %v", got)
	}
	// One slow unit among many does not move the median: the reason
	// every host-time metric is a median over units, not a total.
	units := []float64{1, 1.01, 0.99, 1.02, 0.98, 9}
	if got := median(units); got < 0.99 || got > 1.02 {
		t.Fatalf("median with an outlier unit = %v", got)
	}
	// The quartiles follow Python's statistics.quantiles(n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v %v %v", c.xs, q1, q2, q3, err, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not fail")
	}
}

var sink *[64]byte

func TestAllocAndRSSReaders(t *testing.T) {
	per := allocsPer(1000, func() { sink = new([64]byte) })
	if per < 1 || per > 1.1 {
		t.Fatalf("allocsPer counted %v allocations per call of one new()", per)
	}
	if per := allocsPer(1000, func() {}); per > 0.1 {
		t.Fatalf("allocsPer counted %v allocations per empty call", per)
	}
	before := gcSnapshot()
	for i := 0; i < 100; i++ {
		sink = new([64]byte)
	}
	if d := gcSince(before); d.allocB < 100*64 {
		t.Fatalf("gcSince saw %d bytes allocated, want at least %d", d.allocB, 100*64)
	}

	status := "Name:\tperfbench\nVmPeak:\t  812300 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   19000 kB\n"
	if kb, err := statusKB(strings.NewReader(status), "VmHWM"); err != nil || kb != 20480 {
		t.Fatalf("statusKB VmHWM = %d, %v", kb, err)
	}
	if _, err := statusKB(strings.NewReader(status), "VmSwap"); err == nil {
		t.Fatal("statusKB found a missing field")
	}
	if _, err := statusKB(strings.NewReader("VmHWM:\tlots kB\n"), "VmHWM"); err == nil {
		t.Fatal("statusKB parsed a malformed field")
	}
	rss, err := peakRSSMB()
	if err != nil || rss <= 0 || math.IsNaN(rss) {
		t.Fatalf("peakRSSMB = %v, %v", rss, err)
	}
}
