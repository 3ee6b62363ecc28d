package sim

import (
	"sync/atomic"
	"time"
)

// progress holds the engine's live counters. All updates are lock-free
// atomic adds on the worker path — a run's bookkeeping must never
// serialize the pool — and Snapshot reads them without stopping the
// world, so a momentarily inconsistent (Queued vs Done) view is
// possible and fine for display purposes.
type progress struct {
	queued  atomic.Int64
	running atomic.Int64
	done    atomic.Int64
	failed  atomic.Int64
	resumed atomic.Int64
	retried atomic.Int64
	insts   atomic.Int64
}

// Snapshot is one observation of a batch's progress.
type Snapshot struct {
	// Queued counts specs submitted to the engine (including
	// memoization hits and journal replays).
	Queued int64
	// Running counts simulations currently executing.
	Running int64
	// Done counts specs finished successfully, whether simulated,
	// served from the cache, or replayed from the journal.
	Done int64
	// Failed counts specs whose run (and retry) errored.
	Failed int64
	// Resumed counts runs served from the checkpoint journal instead
	// of being re-simulated.
	Resumed int64
	// Retried counts pooled-machine failures re-attempted on a fresh
	// machine.
	Retried int64
	// Insts is the total retired (measured) instructions simulated so
	// far; journal replays and cache hits do not count.
	Insts int64
	// Elapsed is the wall time since the engine was built.
	Elapsed time.Duration
}

// UopsPerSec returns the aggregate simulation throughput in retired
// uops per wall-clock second.
func (s Snapshot) UopsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Insts) / s.Elapsed.Seconds()
}

// Snapshot returns the engine's current progress counters. It
// allocates nothing and may be called from any goroutine.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Queued:  e.prog.queued.Load(),
		Running: e.prog.running.Load(),
		Done:    e.prog.done.Load(),
		Failed:  e.prog.failed.Load(),
		Resumed: e.prog.resumed.Load(),
		Retried: e.prog.retried.Load(),
		Insts:   e.prog.insts.Load(),
		Elapsed: time.Since(e.start),
	}
}

// notify delivers a snapshot to the progress callback, serialized so
// renderers need no locking of their own.
func (e *Engine) notify() {
	if e.opts.OnProgress == nil {
		return
	}
	e.cbMu.Lock()
	e.opts.OnProgress(e.Snapshot())
	e.cbMu.Unlock()
}
