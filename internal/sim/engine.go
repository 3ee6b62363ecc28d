// Package sim is the batch simulation engine behind every command and
// experiment in this repository: one place that knows how to run many
// machine configurations fast, safely, and resumably.
//
// The engine owns a pool of reusable machines (one per worker; the
// buffered channel doubles as concurrency semaphore and freelist),
// memoizes results by normalized Spec so shared baselines simulate
// once, propagates context cancellation and deadlines into the cycle
// loop via core.Machine.RunContext, aggregates per-spec failures with
// errors.Join instead of aborting the batch, retries a failed run once
// on a fresh never-pooled machine to distinguish poisoned-pool state
// from real faults, and checkpoints every completed run to a JSONL
// journal so an interrupted sweep resumes by replaying the journal —
// bit-identically — instead of re-simulating.
//
// The one-call form for embedding a single simulation:
//
//	out, err := sim.Run(ctx, sim.Spec{Bench: "gcc", Scheme: core.TkSel}, sim.Options{})
//
// Batches construct an Engine and use Run/RunAll directly.
package sim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/smpred"
	"repro/internal/workload"
)

// Options control run length and engine behaviour; zero values take
// defaults sized for minutes-scale full-paper reproduction.
type Options struct {
	// Insts is the measured instruction count per run.
	Insts int64
	// Warmup is the unmeasured warmup instruction count per run.
	Warmup int64
	// Seed drives the workload generator.
	Seed int64
	// Parallelism bounds concurrent simulations (defaults to CPUs).
	Parallelism int
	// Retries is how many times a failed simulation is re-attempted on
	// a fresh, never-pooled machine before the spec is declared failed.
	// 0 means the default of one retry; negative disables retries.
	Retries int
	// Journal is the JSONL checkpoint path. When set, completed runs
	// are appended as they finish, and runs already present in the
	// file (recorded under the same Insts/Warmup/Seed) are replayed
	// instead of re-simulated. Empty disables checkpointing.
	Journal string
	// OnProgress, when set, receives a progress snapshot after every
	// state change (spec queued, simulation started/finished/failed).
	// Calls are serialized by the engine; keep the callback fast.
	OnProgress func(Snapshot)
	// DefaultCheck is the invariant-monitoring level applied to every
	// spec that does not pin its own (spec.Over.Check left at the zero
	// CheckOff). It folds into spec normalization, so a run at the
	// defaulted level and one requesting that level explicitly share a
	// cache entry and a journal line.
	DefaultCheck core.CheckLevel
}

func (o Options) withDefaults() Options {
	if o.Insts == 0 {
		o.Insts = 200_000
	}
	if o.Warmup == 0 {
		o.Warmup = 60_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism == 0 {
		o.Parallelism = runtime.NumCPU()
	}
	switch {
	case o.Retries == 0:
		o.Retries = 1
	case o.Retries < 0:
		o.Retries = 0
	}
	return o
}

// RunOut couples a spec with its results.
type RunOut struct {
	Spec  Spec
	Stats *core.Stats
	Meter *smpred.CoverageMeter
}

// inflightRun is the duplicate-suppression record for a spec currently
// being simulated: followers wait on done instead of re-running it.
type inflightRun struct {
	done chan struct{}
	out  *RunOut
	err  error
}

// permanentError marks failures a retry cannot fix: unknown benchmark,
// invalid configuration. They fail immediately on any machine.
type permanentError struct{ error }

func (p permanentError) Unwrap() error { return p.error }

func permanent(err error) bool {
	var p permanentError
	return errors.As(err, &p)
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Engine runs batches of simulations. One engine amortizes its machine
// pool, memoization cache and journal across every Run/RunAll call; it
// is safe for concurrent use by multiple goroutines.
type Engine struct {
	opts  Options
	start time.Time

	mu       sync.Mutex
	cache    map[Spec]*RunOut
	inflight map[Spec]*inflightRun
	// fromJournal marks cache entries seeded from the checkpoint file,
	// so the first hit on each counts as a resumed run.
	fromJournal map[Spec]bool
	// programs holds each benchmark's compiled workload program. The
	// seed is fixed per engine, so there is at most one entry per
	// benchmark; every run of a bench walks the same read-only program.
	programs map[string]*workload.Program

	// machines pools one simulator per worker: the buffered channel is
	// both the concurrency semaphore and the freelist. Slots start nil
	// and are built (core.New) on first use; thereafter each run resets
	// a pooled machine instead of reallocating the window, event wheel
	// and cache arrays — a full-paper sweep is 265 simulations.
	machines chan *core.Machine

	journal        *journal
	journalErr     error
	journalSkipped int

	prog progress
	cbMu sync.Mutex

	// runHook, when non-nil, may inject a failure before a simulation
	// attempt (test seam for the retry path).
	runHook func(spec Spec, attempt int) error
}

// NewEngine builds a batch engine. A Journal option is loaded (and the
// file opened for appending) here; journal I/O errors are reported by
// the first Run rather than swallowed.
func NewEngine(opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		opts:     o,
		start:    time.Now(),
		cache:    make(map[Spec]*RunOut),
		inflight: make(map[Spec]*inflightRun),
		programs: make(map[string]*workload.Program),
		machines: make(chan *core.Machine, o.Parallelism),
	}
	for i := 0; i < o.Parallelism; i++ {
		e.machines <- nil
	}
	if o.Journal != "" {
		runs, skipped, truncateAt, err := loadJournal(o.Journal, o)
		if err != nil {
			e.journalErr = fmt.Errorf("sim: reading journal %s: %w", o.Journal, err)
			return e
		}
		e.journalSkipped = skipped
		e.fromJournal = make(map[Spec]bool, len(runs))
		for s, out := range runs {
			e.cache[s] = out
			e.fromJournal[s] = true
		}
		if truncateAt >= 0 {
			// The file ends in a torn or corrupt region (an interrupted
			// append). Cut it back to the last intact line so the next
			// append continues a clean JSONL stream instead of gluing
			// onto the fragment.
			if terr := os.Truncate(o.Journal, truncateAt); terr != nil {
				e.journalErr = fmt.Errorf("sim: repairing journal %s: %w", o.Journal, terr)
				return e
			}
		}
		j, err := openJournal(o.Journal)
		if err != nil {
			e.journalErr = fmt.Errorf("sim: opening journal %s: %w", o.Journal, err)
			return e
		}
		e.journal = j
	}
	return e
}

// Run executes one simulation and returns its results. Identical to a
// direct sim.Run call, but memoized, pooled and checkpointed by this
// engine.
func Run(ctx context.Context, spec Spec, opts Options) (*RunOut, error) {
	e := NewEngine(opts)
	defer e.Close()
	return e.Run(ctx, spec)
}

// Options returns the engine's effective options.
func (e *Engine) Options() Options { return e.opts }

// Cached returns how many distinct runs the engine holds, whether
// simulated this session or seeded from the journal.
func (e *Engine) Cached() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// JournalSkipped returns how many journal lines were ignored on load
// (torn writes, other options, unknown schemes).
func (e *Engine) JournalSkipped() int { return e.journalSkipped }

// Close flushes and closes the checkpoint journal. Call it after the
// batch completes; an engine without a journal needs no Close.
func (e *Engine) Close() error {
	if e.journal == nil {
		return nil
	}
	j := e.journal
	e.journal = nil
	return j.close()
}

// normalize canonicalizes a spec against the engine's options: specs
// that leave Check at the zero level inherit Options.DefaultCheck
// before the usual Table 3 normalization.
func (e *Engine) normalize(s Spec) Spec { return e.opts.NormalizeSpec(s) }

// Run executes (or recalls) one simulation.
func (e *Engine) Run(ctx context.Context, spec Spec) (*RunOut, error) {
	spec = e.normalize(spec)
	e.prog.queued.Add(1)
	e.notify()
	out, err := e.result(ctx, spec)
	if err != nil {
		e.prog.failed.Add(1)
	} else {
		e.prog.done.Add(1)
	}
	e.notify()
	return out, err
}

// RunAll executes the given specs concurrently (memoized and
// deduplicated) and returns outputs in spec order. The batch never
// fails fast: every spec gets its attempt, per-spec failures are
// aggregated with errors.Join, and the outputs of the specs that did
// succeed are returned alongside the joined error (failed positions
// are nil) — a 167/168 sweep is a checkpointed near-success, not a
// total loss.
func (e *Engine) RunAll(ctx context.Context, specs []Spec) ([]*RunOut, error) {
	// De-duplicate while preserving order.
	uniq := make([]Spec, 0, len(specs))
	seen := make(map[Spec]bool, len(specs))
	for _, s := range specs {
		n := e.normalize(s)
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	// Concurrency is bounded inside Run by the machine pool, which
	// doubles as the semaphore.
	res := make([]*RunOut, len(uniq))
	errs := make([]error, len(uniq))
	var wg sync.WaitGroup
	for i, s := range uniq {
		wg.Add(1)
		go func(i int, s Spec) {
			defer wg.Done()
			res[i], errs[i] = e.Run(ctx, s)
		}(i, s)
	}
	wg.Wait()
	bySpec := make(map[Spec]*RunOut, len(uniq))
	for i, s := range uniq {
		if errs[i] == nil {
			bySpec[s] = res[i]
		}
	}
	out := make([]*RunOut, len(specs))
	for i, s := range specs {
		out[i] = bySpec[e.normalize(s)]
	}
	return out, errors.Join(errs...)
}

// result returns the memoized, journal-replayed, or freshly simulated
// run for a normalized spec, suppressing duplicate concurrent work.
func (e *Engine) result(ctx context.Context, spec Spec) (*RunOut, error) {
	if e.journalErr != nil {
		return nil, e.journalErr
	}
	for {
		e.mu.Lock()
		if out, ok := e.cache[spec]; ok {
			if e.fromJournal[spec] {
				delete(e.fromJournal, spec)
				e.prog.resumed.Add(1)
			}
			e.mu.Unlock()
			return out, nil
		}
		if fl, ok := e.inflight[spec]; ok {
			e.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("sim: %s: %w", spec, ctx.Err())
			}
			if fl.err == nil {
				return fl.out, nil
			}
			// The leader may have failed only because its own context
			// was canceled; if ours is still live, take over the spec.
			if isCtxErr(fl.err) && ctx.Err() == nil {
				continue
			}
			return nil, fl.err
		}
		fl := &inflightRun{done: make(chan struct{})}
		e.inflight[spec] = fl
		e.mu.Unlock()

		out, err := e.exec(ctx, spec)
		e.mu.Lock()
		if err == nil {
			e.cache[spec] = out
		}
		delete(e.inflight, spec)
		e.mu.Unlock()
		fl.out, fl.err = out, err
		close(fl.done)
		return out, err
	}
}

// program returns prof's compiled workload program, compiling it on
// first use. Callers hold a worker slot, so at most Parallelism
// compiles run at once. The compile runs outside e.mu, so runs of
// other benches never wait on it; when two runs of a new bench race,
// both compile the same deterministic program and the first store wins.
func (e *Engine) program(prof workload.Profile) (*workload.Program, error) {
	e.mu.Lock()
	p := e.programs[prof.Name]
	e.mu.Unlock()
	if p != nil {
		return p, nil
	}
	p, err := workload.Compile(prof, e.opts.Seed)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if prev := e.programs[prof.Name]; prev != nil {
		return prev, nil
	}
	e.programs[prof.Name] = p
	return p, nil
}

// exec simulates one spec on a pooled worker, retrying on a fresh
// machine when the pooled attempt fails, and checkpoints the result.
func (e *Engine) exec(ctx context.Context, spec Spec) (*RunOut, error) {
	cfg := spec.config(e.opts)
	prof, err := workload.ByName(spec.Bench)
	if err != nil {
		return nil, permanentError{fmt.Errorf("sim: %s: %w", spec, err)}
	}

	// Acquire a worker slot — or give up immediately on cancellation,
	// so a canceled batch drains instead of starting new work.
	var slot *core.Machine
	select {
	case slot = <-e.machines:
	case <-ctx.Done():
		return nil, fmt.Errorf("sim: %s: %w", spec, ctx.Err())
	}
	e.prog.running.Add(1)
	e.notify()

	out, pool, err := e.attempt(ctx, spec, cfg, prof, slot, 0)
	for attempt := 1; err != nil && attempt <= e.opts.Retries &&
		!permanent(err) && !isCtxErr(err) && ctx.Err() == nil; attempt++ {
		// The pooled machine is suspect: retry on a fresh, never-pooled
		// machine. Success here means reuse state was the fault (and
		// the bad machine is already dropped); a second failure is a
		// real fault in the spec itself.
		e.prog.retried.Add(1)
		e.notify()
		out, pool, err = e.attempt(ctx, spec, cfg, prof, nil, attempt)
	}
	e.machines <- pool
	e.prog.running.Add(-1)
	if err != nil {
		return nil, err
	}
	if e.journal != nil {
		if jerr := e.journal.append(e.opts, out); jerr != nil {
			return nil, jerr
		}
	}
	e.prog.insts.Add(out.Stats.Retired)
	return out, nil
}

// attempt runs one simulation. pooled is the worker slot's machine
// (nil when the slot is empty or a fresh machine is wanted). The
// returned machine goes back into the slot: the machine that ran on
// success — fresh builds are pooled from then on — or nil after a
// failure, so a bad run can't poison later ones.
func (e *Engine) attempt(ctx context.Context, spec Spec, cfg core.Config,
	prof workload.Profile, pooled *core.Machine, attempt int) (*RunOut, *core.Machine, error) {
	program, err := e.program(prof)
	if err != nil {
		return nil, nil, permanentError{fmt.Errorf("sim: %s: %w", spec, err)}
	}
	gen := program.NewGenerator()
	m := pooled
	if m == nil {
		m, err = core.New(cfg, gen)
	} else {
		err = m.Reset(cfg, gen)
	}
	if err != nil {
		// Configuration errors are permanent: the spec fails the same
		// way on any machine.
		return nil, nil, permanentError{fmt.Errorf("sim: %s: %w", spec, err)}
	}
	if e.runHook != nil {
		if herr := e.runHook(spec, attempt); herr != nil {
			return nil, nil, fmt.Errorf("sim: %s: %w", spec, herr)
		}
	}
	st, err := m.RunContext(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %s: %w", spec, err)
	}
	// Snapshot results out of the machine before it is pooled for
	// reuse: Stats and Meter pointers alias machine state.
	stc := st.Clone()
	meter := *m.Meter()
	return &RunOut{Spec: spec, Stats: &stc, Meter: &meter}, m, nil
}
