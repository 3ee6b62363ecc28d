package api

import (
	"fmt"
	"time"

	"repro/internal/bpred"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// FromSimSpec converts an engine spec to its wire form. The zero
// Overrides collapses to an absent "over" object, so the wire spec is
// as canonical as the sim spec it mirrors.
func FromSimSpec(s sim.Spec) Spec {
	w := Spec{Bench: s.Bench, Wide8: s.Wide8, Scheme: s.Scheme.String()}
	if s.Over == (sim.Overrides{}) {
		return w
	}
	o := &Overrides{
		Tokens:          s.Over.Tokens,
		SchedToExec:     s.Over.SchedToExec,
		IQSize:          s.Over.IQSize,
		ROBSize:         s.Over.ROBSize,
		LSQSize:         s.Over.LSQSize,
		PredEntries:     s.Over.PredEntries,
		Bpred:           s.Over.Bpred,
		Prefetch:        s.Over.Prefetch,
		ReplayQueue:     s.Over.ReplayQueue,
		ValuePrediction: s.Over.ValuePrediction,
	}
	if s.Over.Check != core.CheckOff {
		o.Check = s.Over.Check.String()
	}
	w.Over = o
	return w
}

// ToSim converts a wire spec back to an engine spec, resolving the
// scheme and check-level names. It does not validate the benchmark —
// that is the executing side's job, where the workload registry lives.
func (s Spec) ToSim() (sim.Spec, error) {
	scheme, err := core.ParseScheme(s.Scheme)
	if err != nil {
		return sim.Spec{}, fmt.Errorf("api: spec %s/%s: %w", s.Bench, s.Scheme, err)
	}
	out := sim.Spec{Bench: s.Bench, Wide8: s.Wide8, Scheme: scheme}
	if s.Over == nil {
		return out, nil
	}
	out.Over = sim.Overrides{
		Tokens:          s.Over.Tokens,
		SchedToExec:     s.Over.SchedToExec,
		IQSize:          s.Over.IQSize,
		ROBSize:         s.Over.ROBSize,
		LSQSize:         s.Over.LSQSize,
		PredEntries:     s.Over.PredEntries,
		Bpred:           s.Over.Bpred,
		Prefetch:        s.Over.Prefetch,
		ReplayQueue:     s.Over.ReplayQueue,
		ValuePrediction: s.Over.ValuePrediction,
	}
	if s.Over.Bpred != "" {
		if _, err := bpred.ParseKind(s.Over.Bpred); err != nil {
			return sim.Spec{}, fmt.Errorf("api: spec %s/%s: %w", s.Bench, s.Scheme, err)
		}
	}
	if s.Over.Prefetch != "" {
		if _, err := prefetch.ParseKind(s.Over.Prefetch); err != nil {
			return sim.Spec{}, fmt.Errorf("api: spec %s/%s: %w", s.Bench, s.Scheme, err)
		}
	}
	if s.Over.Check != "" {
		level, err := core.ParseCheckLevel(s.Over.Check)
		if err != nil {
			return sim.Spec{}, fmt.Errorf("api: spec %s/%s: %w", s.Bench, s.Scheme, err)
		}
		out.Over.Check = level
	}
	return out, nil
}

// FromRunOut builds the wire result for one completed run, including
// its content-address key. The run lengths are the engine options the
// run executed under.
func FromRunOut(out *sim.RunOut, insts, warmup, seed int64) *Result {
	return &Result{
		API:    Version,
		Key:    Key(out.Spec, insts, warmup, seed),
		Spec:   FromSimSpec(out.Spec),
		Insts:  insts,
		Warmup: warmup,
		Seed:   seed,
		Stats:  out.Stats,
		Meter:  out.Meter,
	}
}

// ToRunOut converts a wire result back into the engine's result type.
func (r *Result) ToRunOut() (*sim.RunOut, error) {
	spec, err := r.Spec.ToSim()
	if err != nil {
		return nil, err
	}
	if r.Stats == nil || r.Meter == nil {
		return nil, fmt.Errorf("api: result %s/%s: missing stats or meter", r.Spec.Bench, r.Spec.Scheme)
	}
	return &sim.RunOut{Spec: spec, Stats: r.Stats, Meter: r.Meter}, nil
}

// FromFinding converts one validation finding to its wire form,
// rendering the monitor violations with their stream cursors.
func FromFinding(f check.Finding) Finding {
	w := Finding{
		Spec:   FromSimSpec(f.Spec),
		Seed:   f.Seed,
		Kind:   f.Kind,
		Msg:    f.Msg,
		Stream: f.Stream,
	}
	for _, v := range f.Violations {
		w.Violations = append(w.Violations,
			fmt.Sprintf("%s (stream cursor %d)", v.String(), v.Cursor))
	}
	return w
}

// FromReport converts a validation report to its wire form. Findings
// is always a JSON array, never null, so consumers can range without a
// nil check.
func FromReport(r *check.Report) *ValidateReport {
	w := &ValidateReport{API: Version, Runs: r.Runs, Findings: []Finding{}}
	for _, f := range r.Findings {
		w.Findings = append(w.Findings, FromFinding(f))
	}
	return w
}

// Snapshot maps a wire progress observation onto the engine's snapshot
// type, so remote progress drives the same status-line renderer local
// batches use.
func (p Progress) Snapshot() sim.Snapshot {
	return sim.Snapshot{
		Queued:  p.Queued,
		Running: p.Running,
		Done:    p.Done,
		Failed:  p.Failed,
		Resumed: p.Resumed,
		Retried: p.Retried,
		Insts:   p.Insts,
		Elapsed: time.Duration(p.ElapsedMS) * time.Millisecond,
	}
}
