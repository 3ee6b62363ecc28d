package sim

import (
	"fmt"
	"strings"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/prefetch"
)

// Spec identifies one simulation: a benchmark, a machine width, a
// replay scheme, and optional configuration overrides. Specs are plain
// comparable values — the engine uses them as memoization and journal
// keys — and two specs that normalize equal denote the same run.
type Spec struct {
	// Bench names a workload profile (see workload.Benchmarks).
	Bench string
	// Wide8 selects the 8-wide Table 3 machine (default 4-wide).
	Wide8 bool
	// Scheme is the replay scheme.
	Scheme core.Scheme
	// Over holds optional deviations from the Table 3 configuration.
	Over Overrides
}

// Overrides are the configuration deltas the ablation sweeps explore.
// Zero-valued fields keep the Table 3 value for the selected width, so
// the zero Overrides is the paper's machine.
type Overrides struct {
	// Tokens overrides the TkSel token pool size.
	Tokens int `json:"tokens,omitempty"`
	// SchedToExec overrides the schedule-to-execute distance.
	SchedToExec int `json:"schedToExec,omitempty"`
	// IQSize, ROBSize and LSQSize override the window structures.
	IQSize  int `json:"iq,omitempty"`
	ROBSize int `json:"rob,omitempty"`
	LSQSize int `json:"lsq,omitempty"`
	// PredEntries overrides the scheduling-miss predictor table size
	// (must be a power of two).
	PredEntries int `json:"predEntries,omitempty"`
	// Bpred selects a branch-predictor kind by name ("tage"); empty or
	// "combined" keeps the paper's bimodal/gshare combination. Stored
	// as the canonical kind name so specs stay comparable.
	Bpred string `json:"bpred,omitempty"`
	// Prefetch selects a data-prefetcher kind by name ("stride");
	// empty or "off" keeps the paper's prefetch-free machine.
	Prefetch string `json:"prefetch,omitempty"`
	// ReplayQueue selects the Figure 4b replay-queue model.
	ReplayQueue bool `json:"rq,omitempty"`
	// ValuePrediction enables load value prediction.
	ValuePrediction bool `json:"vp,omitempty"`
	// Check sets the invariant-monitoring level (core.CheckLevel); the
	// zero value is off. Distinct levels are distinct specs: they memoize
	// and journal separately, which is what lets the validation layer
	// compare the same run at different levels.
	Check core.CheckLevel `json:"check,omitempty"`
}

// isZero reports whether every override keeps its default.
func (o Overrides) isZero() bool { return o == Overrides{} }

// Width returns the human label for the machine width.
func (s Spec) Width() string {
	if s.Wide8 {
		return "8-wide"
	}
	return "4-wide"
}

// String labels the spec in errors and progress output.
func (s Spec) String() string {
	base := fmt.Sprintf("%s %s %v", s.Bench, s.Width(), s.Scheme)
	if s.Over.isZero() {
		return base
	}
	var d []string
	add := func(name string, v int) {
		if v > 0 {
			d = append(d, fmt.Sprintf("%s=%d", name, v))
		}
	}
	add("tokens", s.Over.Tokens)
	add("schedToExec", s.Over.SchedToExec)
	add("iq", s.Over.IQSize)
	add("rob", s.Over.ROBSize)
	add("lsq", s.Over.LSQSize)
	add("predEntries", s.Over.PredEntries)
	if s.Over.Bpred != "" {
		d = append(d, "bpred="+s.Over.Bpred)
	}
	if s.Over.Prefetch != "" {
		d = append(d, "prefetch="+s.Over.Prefetch)
	}
	if s.Over.ReplayQueue {
		d = append(d, "rq")
	}
	if s.Over.ValuePrediction {
		d = append(d, "vp")
	}
	if s.Over.Check != core.CheckOff {
		d = append(d, "check="+s.Over.Check.String())
	}
	return base + " [" + strings.Join(d, " ") + "]"
}

// Normalize zeroes overrides that equal the Table 3 default for the
// spec's width, so e.g. the token sweep's pool-of-16 point on the
// 8-wide machine and the plain 8-wide baseline share one cache entry
// and one journal line. The engine normalizes every spec on entry.
func (s Spec) Normalize() Spec {
	base := s.baseConfig()
	o := &s.Over
	if o.Tokens == base.Tokens {
		o.Tokens = 0
	}
	if o.SchedToExec == base.SchedToExec {
		o.SchedToExec = 0
	}
	if o.IQSize == base.IQSize {
		o.IQSize = 0
	}
	if o.ROBSize == base.ROBSize {
		o.ROBSize = 0
	}
	if o.LSQSize == base.LSQSize {
		o.LSQSize = 0
	}
	if o.PredEntries == base.SMPred.Entries {
		o.PredEntries = 0
	}
	// Frontend names canonicalize through their registries: any
	// spelling of the default kind is the zero override, and other
	// kinds take their canonical (lower-case) name. Unknown names pass
	// through — the construction layers (simflag, the wire API) reject
	// them before a spec reaches the engine. An empty name is already
	// canonical and is not parsed: a failed parse builds an error, and
	// every spec without a frontend override passes through here.
	if o.Bpred != "" {
		if k, err := bpred.ParseKind(o.Bpred); err == nil {
			if k == bpred.KindCombined {
				o.Bpred = ""
			} else {
				o.Bpred = k.String()
			}
		}
	}
	if o.Prefetch != "" {
		if k, err := prefetch.ParseKind(o.Prefetch); err == nil {
			if k == prefetch.KindOff {
				o.Prefetch = ""
			} else {
				o.Prefetch = k.String()
			}
		}
	}
	return s
}

// baseConfig returns the Table 3 machine for the spec's width.
func (s Spec) baseConfig() core.Config {
	if s.Wide8 {
		return core.Config8Wide()
	}
	return core.Config4Wide()
}

// Config materializes the spec (plus the engine's run-length options)
// into a machine configuration — the exact configuration Engine.Run
// would simulate. The validation layer uses it to re-run a finding's
// spec on a bare machine with an event recorder attached.
func (s Spec) Config(opts Options) core.Config { return s.config(opts) }

// config materializes the spec (plus the engine's run-length options)
// into a machine configuration.
func (s Spec) config(opts Options) core.Config {
	cfg := s.baseConfig()
	cfg.Scheme = s.Scheme
	cfg.MaxInsts = opts.Insts
	cfg.Warmup = opts.Warmup
	o := s.Over
	if o.Tokens > 0 {
		cfg.Tokens = o.Tokens
	}
	if o.SchedToExec > 0 {
		cfg.SchedToExec = o.SchedToExec
	}
	if o.IQSize > 0 {
		cfg.IQSize = o.IQSize
	}
	if o.ROBSize > 0 {
		cfg.ROBSize = o.ROBSize
	}
	if o.LSQSize > 0 {
		cfg.LSQSize = o.LSQSize
	}
	if o.PredEntries > 0 {
		cfg.SMPred.Entries = o.PredEntries
	}
	if o.Bpred != "" {
		if k, err := bpred.ParseKind(o.Bpred); err == nil && k == bpred.KindTAGE {
			cfg.Bpred = bpred.DefaultTAGE()
		}
	}
	if o.Prefetch != "" {
		if k, err := prefetch.ParseKind(o.Prefetch); err == nil && k == prefetch.KindStride {
			cfg.Prefetch = prefetch.DefaultStride()
		}
	}
	cfg.ReplayQueue = o.ReplayQueue
	cfg.ValuePrediction = o.ValuePrediction
	cfg.Check = o.Check
	return cfg
}
