// Package simflag is the shared command-line plumbing for the
// simulation commands (cmd/replaysim, cmd/sweep, cmd/trace,
// cmd/pipeview, cmd/paper): one canonical set of flag names, defaults
// and validation, so the commands stop re-declaring the same flags
// with drifting defaults, plus the live status-line renderer for the
// sim engine's progress snapshots.
//
// Commands build a *Sim, optionally adjust defaults (the adjustment is
// then visible in -help), register only the flag groups they use, and
// call Validate after flag parsing:
//
//	s := simflag.New()
//	s.Bench = "mcf" // command-specific default
//	s.RegisterBench(flag.CommandLine)
//	s.RegisterMachine(flag.CommandLine)
//	flag.Parse()
package simflag

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sim holds the flag values shared by the simulation commands. Zero it
// via New to get the canonical defaults; override fields before
// registering to give a command a different (documented) default.
type Sim struct {
	Bench        string
	SchemeName   string
	ListSchemes  bool
	Wide8        bool
	BpredName    string
	PrefetchName string
	Insts        int64
	Warmup       int64
	Seed         int64
	Par          int
	Journal      string
	Progress     bool
	CheckName    string
	Remote       string

	// which flag groups were registered, so Validate only checks
	// values the user could actually set.
	hasBench, hasMachine, hasLength, hasBatch, hasCheck bool
}

// New returns the canonical defaults: the paper's 200k-instruction
// measured run after 60k warmup on the 4-wide machine, PosSel (the
// normalization baseline), gcc, seed 1.
func New() *Sim {
	return &Sim{
		Bench:        "gcc",
		SchemeName:   "PosSel",
		BpredName:    bpred.KindCombined.String(),
		PrefetchName: prefetch.KindOff.String(),
		Insts:        200_000,
		Warmup:       60_000,
		Seed:         1,
		Progress:     true,
		CheckName:    core.CheckOff.String(),
	}
}

// RegisterBench registers -bench.
func (s *Sim) RegisterBench(fs *flag.FlagSet) {
	s.hasBench = true
	fs.StringVar(&s.Bench, "bench", s.Bench,
		"benchmark: "+strings.Join(workload.Benchmarks, ", "))
}

// RegisterSeed registers -seed.
func (s *Sim) RegisterSeed(fs *flag.FlagSet) {
	fs.Int64Var(&s.Seed, "seed", s.Seed, "workload generator seed")
}

// RegisterMachine registers -scheme, -list-schemes and -wide8.
func (s *Sim) RegisterMachine(fs *flag.FlagSet) {
	s.hasMachine = true
	fs.StringVar(&s.SchemeName, "scheme", s.SchemeName,
		"replay scheme: "+strings.Join(core.SchemeNames(), ", "))
	fs.BoolVar(&s.ListSchemes, "list-schemes", false,
		"list the registered replay schemes and exit")
	fs.BoolVar(&s.Wide8, "wide8", s.Wide8, "use the 8-wide Table 3 machine")
	fs.StringVar(&s.BpredName, "bpred", s.BpredName,
		"branch predictor: "+strings.Join(bpred.KindNames(), ", "))
	fs.StringVar(&s.PrefetchName, "prefetch", s.PrefetchName,
		"data prefetcher: "+strings.Join(prefetch.KindNames(), ", "))
}

// RegisterLength registers -insts and -warmup.
func (s *Sim) RegisterLength(fs *flag.FlagSet) {
	s.hasLength = true
	fs.Int64Var(&s.Insts, "insts", s.Insts, "measured instructions per simulation")
	fs.Int64Var(&s.Warmup, "warmup", s.Warmup, "warmup instructions per simulation")
}

// RegisterBatch registers the batch-engine flags: -par, -journal and
// -progress.
func (s *Sim) RegisterBatch(fs *flag.FlagSet) {
	s.hasBatch = true
	fs.IntVar(&s.Par, "par", s.Par, "max concurrent simulations (0 = NumCPU)")
	fs.StringVar(&s.Journal, "journal", s.Journal,
		"JSONL checkpoint file: completed runs are appended as they finish and replayed on restart")
	fs.BoolVar(&s.Progress, "progress", s.Progress, "render a live status line on stderr")
}

// RegisterRemote registers -remote, the simd server URL.
func (s *Sim) RegisterRemote(fs *flag.FlagSet) {
	fs.StringVar(&s.Remote, "remote", s.Remote,
		"simd server URL (e.g. http://localhost:8080); empty simulates locally")
}

// RegisterCheck registers -check, the invariant-monitoring level.
func (s *Sim) RegisterCheck(fs *flag.FlagSet) {
	s.hasCheck = true
	fs.StringVar(&s.CheckName, "check", s.CheckName,
		"invariant monitor level: "+strings.Join(core.CheckLevelNames(), ", "))
}

// Check resolves -check.
func (s *Sim) Check() (core.CheckLevel, error) {
	return core.ParseCheckLevel(s.CheckName)
}

// HandleListSchemes prints the scheme list to w when -list-schemes was
// given, reporting whether the command should exit.
func (s *Sim) HandleListSchemes(w io.Writer) bool {
	if !s.ListSchemes {
		return false
	}
	fmt.Fprintln(w, strings.Join(core.SchemeNames(), "\n"))
	return true
}

// Scheme resolves -scheme.
func (s *Sim) Scheme() (core.Scheme, error) {
	return core.ParseScheme(s.SchemeName)
}

// Spec is the base spec the flags select: -bench, -scheme and -wide8,
// with -bpred/-prefetch as canonical (lower-case) overrides. Default
// frontend kinds stay the zero override, so a command run without the
// flags produces unchanged specs and cache keys. Every command builds
// its specs from this one, after Validate.
func (s *Sim) Spec() sim.Spec {
	scheme, _ := s.Scheme() // Validate has already vetted it
	return sim.Spec{
		Bench: s.Bench, Wide8: s.Wide8, Scheme: scheme,
		Over: sim.Overrides{Bpred: s.BpredName, Prefetch: s.PrefetchName},
	}.Normalize()
}

// Validate checks the registered flag groups; the returned error is
// ready to print.
func (s *Sim) Validate() error {
	if s.hasBench {
		if _, err := workload.ByName(s.Bench); err != nil {
			return err
		}
	}
	if s.hasMachine && !s.ListSchemes {
		if _, err := s.Scheme(); err != nil {
			return err
		}
		if _, err := bpred.ParseKind(s.BpredName); err != nil {
			return err
		}
		if _, err := prefetch.ParseKind(s.PrefetchName); err != nil {
			return err
		}
	}
	if s.hasLength {
		if s.Insts <= 0 {
			return fmt.Errorf("simflag: -insts %d must be positive", s.Insts)
		}
		if s.Warmup < 0 {
			return fmt.Errorf("simflag: -warmup %d must be non-negative", s.Warmup)
		}
	}
	if s.hasBatch && s.Par < 0 {
		return fmt.Errorf("simflag: -par %d must be non-negative", s.Par)
	}
	if s.hasCheck {
		if _, err := s.Check(); err != nil {
			return err
		}
	}
	return nil
}

// Options assembles the engine options from the parsed flags. When the
// -check group is registered, the chosen level becomes the engine-wide
// default for every spec that does not pin its own.
func (s *Sim) Options() sim.Options {
	o := sim.Options{
		Insts:       s.Insts,
		Warmup:      s.Warmup,
		Seed:        s.Seed,
		Parallelism: s.Par,
		Journal:     s.Journal,
	}
	if s.hasCheck {
		o.DefaultCheck, _ = s.Check() // Validate has already vetted it
	}
	return o
}

// Runner builds the execution backend the flags selected: the local
// batch engine, or — when -remote was given — a client for a simd
// server, behind the same sim.Runner interface, so commands are
// written once against either. The returned stop function releases the
// backend (closing the engine's journal, or ending the remote progress
// stream) and must be called before reading final results.
//
// With a remote backend, opts' engine-only fields (Parallelism and
// Journal) are the server's business and are ignored here;
// opts.OnProgress still works — it is fed from the server's SSE
// progress stream, so the same status line renders either way. Remote
// snapshots carry server-wide counters rather than this batch's own.
func (s *Sim) Runner(ctx context.Context, opts sim.Options) (sim.Runner, func() error) {
	if s.Remote == "" {
		eng := sim.NewEngine(opts)
		return eng, eng.Close
	}
	cl := api.NewClient(s.Remote, opts)
	if opts.OnProgress == nil {
		return cl, func() error { return nil }
	}
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Stream errors only cost the status line, never the batch.
		cl.StreamProgress(sctx, func(p api.Progress) bool {
			opts.OnProgress(p.Snapshot())
			return true
		})
	}()
	return cl, func() error {
		cancel()
		<-done
		return nil
	}
}

// Status renders engine progress snapshots as a single live status
// line, repainted in place with carriage returns. Wire its Update
// method to sim.Options.OnProgress and defer Close to end the line.
type Status struct {
	mu      sync.Mutex
	w       io.Writer
	enabled bool
	last    time.Time
	painted bool
	final   sim.Snapshot
}

// NewStatus builds a renderer writing to w; a disabled renderer is a
// no-op, so callers can wire it unconditionally.
func NewStatus(w io.Writer, enabled bool) *Status {
	return &Status{w: w, enabled: enabled}
}

// Update repaints the status line, throttled so a fast batch does not
// spend its time in terminal writes.
func (s *Status) Update(snap sim.Snapshot) {
	if !s.enabled {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.final = snap
	if time.Since(s.last) < 100*time.Millisecond {
		return
	}
	s.last = time.Now()
	s.paint(snap)
}

func (s *Status) paint(snap sim.Snapshot) {
	line := fmt.Sprintf("sim %d/%d done, %d running, %d failed, %d resumed | %s uops/s",
		snap.Done, snap.Queued, snap.Running, snap.Failed, snap.Resumed,
		siCount(snap.UopsPerSec()))
	if snap.Retried > 0 {
		line += fmt.Sprintf(", %d retried", snap.Retried)
	}
	// Pad past the previous paint so shrinking lines leave no residue.
	fmt.Fprintf(s.w, "\r%-72s", line)
	s.painted = true
}

// Close paints the final counters and terminates the status line.
func (s *Status) Close() {
	if !s.enabled {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.final.Queued > 0 {
		s.paint(s.final)
	}
	if s.painted {
		fmt.Fprintln(s.w)
		s.painted = false
	}
}

// siCount renders a rate with an SI suffix (1.8M, 430k).
func siCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
