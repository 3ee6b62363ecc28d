package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/sim"
)

// load is one named workload, a traffic mix. Every round runs on fresh
// state (a new engine, store and directory), so no memo carries over
// from one round to the next.
type load interface {
	// round runs the workload's fixed work once, recording its samples.
	// When pl is non-nil the round's engine reports progress to it.
	round(r *recorder, pl *progressLog) error
	// setupUnit times one construction of the start-up work a user pays
	// before the first unit of work.
	setupUnit(r *recorder) error
	// hitUnit issues a batch of requests the workload answers without
	// simulating, recording each.
	hitUnit(r *recorder) error
	// specs lists the distinct simulations one round makes.
	specs() []sim.Spec
	// options are the run lengths and seed the simulations use.
	options() sim.Options
}

// recorder collects one run's samples and its operation tally. Host
// times are kept per unit so every reported time is a median over many
// identical units, never one total.
type recorder struct {
	rounds    []float64 // s per round
	rates     []float64 // simulated Minst per host second, per round
	setups    []float64 // s per set-up unit
	hits      []float64 // µs per hit request
	hitTails  []float64 // µs, each hit unit's p99
	hitRates  []float64 // hit requests per second, per hit unit
	hitAllocs uint64    // heap allocations across all hit units
	misses    []float64 // ms per request that simulated
	ipcErrPct float64   // latest round's IPC error against the paper
	simulated int64     // distinct simulations in the latest round

	journalLoads []float64 // ms per sim.NewEngine over a journal
	storeOpens   []float64 // ms per serve.OpenStore over a populated store
	tierHits     int64     // X-Cache tally of the serve rounds
	tierTotal    int64

	clk *hostClock // normalizes each segment's host times, when set

	attempted, failed int64
	failures          []string
}

// mark is how many samples each host-time series held at one moment.
type mark [8]int

func (r *recorder) mark() mark {
	return mark{len(r.rounds), len(r.rates), len(r.setups), len(r.hits),
		len(r.hitRates), len(r.misses), len(r.journalLoads), len(r.storeOpens)}
}

// normalize scales the host times recorded since m by f, and the rates
// (work per host second) by 1/f.
func (r *recorder) normalize(m mark, f float64) {
	for i, xs := range [][]float64{r.rounds, r.rates, r.setups, r.hits,
		r.hitRates, r.misses, r.journalLoads, r.storeOpens} {
		k := f
		if i == 1 || i == 4 {
			k = 1 / f
		}
		for j := m[i]; j < len(xs); j++ {
			xs[j] *= k
		}
	}
}

// seg runs f as one timed segment of a unit and returns its host time
// in seconds. With a host clock, that time and every host-time sample f
// recorded are normalized by the reference runs around the segment.
func (r *recorder) seg(f func() error) (float64, error) { return r.segOn(r.clk, f) }

// segOn is seg normalized by clock c instead; a nil c leaves the times
// raw.
func (r *recorder) segOn(c *hostClock, f func() error) (float64, error) {
	m := r.mark()
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	if c != nil {
		k := c.factor()
		r.normalize(m, k)
		d *= k
	}
	return d, err
}

// check counts one operation, and a failure when err is non-nil.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// sizes fixes the work of one round of each workload. Both commits of a
// comparison run the same sizes.
type sizes struct {
	paperInsts, paperWarmup int64
	heavyInsts, heavyWarmup int64
	serveInsts, serveWarmup int64
	hitsPerUnit             int // hit requests per hit unit (serve: per warm phase)
	minRounds               int
}

// fullSize is what the benchmark command runs.
var fullSize = sizes{
	paperInsts: 4000, paperWarmup: 1000,
	heavyInsts: 40000, heavyWarmup: 5000,
	serveInsts: 5000, serveWarmup: 1000,
	hitsPerUnit: samplesForTail(0.99), minRounds: 5,
}

// newWorkload builds the named workload with its inputs derived from
// seed, in a fresh directory under dir.
func newWorkload(name string, seed int64, sz sizes, dir string) (load, error) {
	switch name {
	case "paper":
		return newPaper(seed, sz, dir)
	case "replay-heavy":
		return newHeavy(seed, sz, dir)
	case "serve":
		return newServeLoad(seed, sz, dir)
	}
	return nil, fmt.Errorf("unknown workload %q (paper, replay-heavy, serve)", name)
}

// streamSeed seeds the simulated instruction streams of every workload.
// It is the repository's default seed, the one the paper's tables are
// regenerated with: ipc_err_pct compares against the paper, and the
// simulated work of a round stays the same from one benchmark seed to
// the next. The benchmark seed orders the requests instead.
const streamSeed = 1

// roundDir makes a fresh directory for one round's state.
func roundDir(parent string) (string, error) {
	return os.MkdirTemp(parent, "round-")
}

// hitChunk is how many hit requests share one normalized segment.
const hitChunk = 100

// measureLoop interleaves rounds, set-up units and hit units until the
// time is spent and at least minRounds rounds ran. Every segment of
// every unit is normalized by the host clock. A unit that made enough
// hit requests for a p99 with minBeyond samples beyond it contributes
// its own p99; the reported p99 is the median of those.
func measureLoop(w load, r *recorder, seconds float64, sz sizes) error {
	r.clk = newHostClock(w.options().Parallelism)
	defer func() { r.clk = nil }()
	unit := func(f func(*recorder) error) error {
		n := len(r.hits)
		if err := f(r); err != nil {
			return err
		}
		if p99, ok := tailPercentile(r.hits[n:], 0.99); ok {
			r.hitTails = append(r.hitTails, p99)
		}
		return nil
	}
	round := func(r *recorder) error { return w.round(r, nil) }
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(r.rounds) < sz.minRounds || time.Now().Before(deadline) {
		if err := unit(round); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			if err := w.setupUnit(r); err != nil {
				return err
			}
		}
		if err := unit(w.hitUnit); err != nil {
			return err
		}
	}
	return nil
}

// progressLog integrates an engine's progress snapshots over a round:
// time with any simulation running, time with the pool full, the
// running-count integral, and the intervals with work in flight.
type progressLog struct {
	par int64

	mu          sync.Mutex
	last        time.Time
	lastRunning int64
	busyFrom    time.Time
	busy        [][2]time.Time
	full        time.Duration
	area        time.Duration // ∫ running dt
	snap        sim.Snapshot
}

func newProgressLog(par int) *progressLog {
	return &progressLog{par: int64(par), last: time.Now()}
}

// observe is the engine's OnProgress callback.
func (p *progressLog) observe(s sim.Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(time.Now(), s.Running)
	p.snap = s
}

func (p *progressLog) advance(now time.Time, running int64) {
	d := now.Sub(p.last)
	p.area += time.Duration(p.lastRunning) * d
	if p.lastRunning >= p.par {
		p.full += d
	}
	switch {
	case p.lastRunning == 0 && running > 0:
		p.busyFrom = now
	case p.lastRunning > 0 && running == 0:
		p.busy = append(p.busy, [2]time.Time{p.busyFrom, now})
	}
	p.last, p.lastRunning = now, running
}

// finish closes an open busy interval at the end of the round.
func (p *progressLog) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(time.Now(), 0)
}

// workDir makes the directory a run keeps its state in, inside the
// current directory so the benchmark writes nowhere else.
func workDir() (string, error) {
	base := filepath.Join(".bench_build", "perfbench-work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
