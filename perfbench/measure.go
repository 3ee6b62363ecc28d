package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples a reported tail percentile must leave
// above it; fewer and the percentile is one or two outliers.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so the steadiness report agrees with a
// spread computed from the printed results. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sortedCopy(xs)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3), nil
}

// tailPercentile returns the nearest-rank p-quantile (0 < p < 1) of xs
// and whether at least minBeyond samples lie strictly beyond its rank,
// the condition for reporting it at all.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minBeyond
}

// samplesForTail is the smallest sample count that supports the
// p-quantile under the minBeyond rule.
func samplesForTail(p float64) int {
	for n := minBeyond + 1; ; n++ {
		rank := int(math.Ceil(p * float64(n)))
		if n-rank >= minBeyond {
			return n
		}
	}
}

// mallocs returns the process's cumulative heap allocation count. It
// stops the world briefly, so call it at unit boundaries only.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer returns the heap allocations per call of f over n calls.
func allocsPer(n int, f func()) float64 {
	before := mallocs()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(mallocs()-before) / float64(n)
}

// gcDelta is the Go runtime's work between two observations.
type gcDelta struct {
	cycles  uint32
	pauseNs uint64
	allocB  uint64
}

func gcSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func gcSince(before runtime.MemStats) gcDelta {
	after := gcSnapshot()
	return gcDelta{
		cycles:  after.NumGC - before.NumGC,
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
		allocB:  after.TotalAlloc - before.TotalAlloc,
	}
}

// statusKB reads one "Name: <n> kB" field of a /proc/<pid>/status file.
func statusKB(r io.Reader, field string) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		num := strings.TrimSuffix(strings.TrimSpace(rest), " kB")
		kb, err := strconv.ParseInt(strings.TrimSpace(num), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status field %s: %w", field, err)
		}
		return kb, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("status field %s not found", field)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := statusKB(f, "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}
