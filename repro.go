// Package repro is a from-scratch Go reproduction of "Understanding
// Scheduling Replay Schemes" (Ilhyun Kim and Mikko H. Lipasti, HPCA
// 2004): a cycle-level out-of-order superscalar simulator with
// speculative scheduling and the paper's full design space of
// scheduling replay schemes, including its contribution, token-based
// selective replay.
//
// This package is the public facade. A minimal run:
//
//	res, err := repro.Run(repro.Options{
//		Benchmark: "gcc",
//		Scheme:    repro.TkSel,
//	})
//	fmt.Printf("IPC %.3f, miss rate %.2f%%\n", res.IPC, 100*res.LoadMissRate)
//
// The full paper reproduction lives in cmd/paper; per-experiment
// benchmarks in bench_test.go regenerate each table and figure.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/smpred"
	"repro/internal/workload"
)

// Scheme selects a scheduling replay scheme. See the paper's §3–§4.
type Scheme = core.Scheme

// The available replay schemes.
const (
	// PosSel is position-based selective replay (§3.4.3), the ideal
	// baseline.
	PosSel = core.PosSel
	// IDSel is ID-based selective replay (§3.4.1).
	IDSel = core.IDSel
	// NonSel is non-selective (squashing) replay (§3.3).
	NonSel = core.NonSel
	// DSel is delayed selective replay (§3.4.2).
	DSel = core.DSel
	// TkSel is token-based selective replay (§4.2), the paper's
	// contribution.
	TkSel = core.TkSel
	// ReInsert recovers every miss by re-inserting from the ROB.
	ReInsert = core.ReInsert
	// Refetch treats scheduling misses like branch mispredictions
	// (§3.2).
	Refetch = core.Refetch
	// Conservative schedules predicted-miss loads pessimistically
	// (§5.4).
	Conservative = core.Conservative
	// SerialVerify propagates verification serially (§2.1, Figure 2a).
	SerialVerify = core.SerialVerify
	// LoadDelay delays dependent wakeup to a per-PC predicted load
	// latency instead of speculating on a hit (after Diavastos &
	// Carlson).
	LoadDelay = core.LoadDelay
)

// Schemes returns every implemented replay scheme.
func Schemes() []Scheme { return core.Schemes() }

// ParseScheme resolves a replay scheme by its registered name,
// case-insensitively; unknown names return an error listing every
// valid one.
func ParseScheme(name string) (Scheme, error) { return core.ParseScheme(name) }

// SchemeNames returns every registered scheme name in the paper's
// presentation order.
func SchemeNames() []string { return core.SchemeNames() }

// Benchmarks returns the modeled SPEC CINT2000 benchmark names in the
// paper's table order.
func Benchmarks() []string {
	out := make([]string, len(workload.Benchmarks))
	copy(out, workload.Benchmarks)
	return out
}

// Options selects one simulation.
type Options struct {
	// Benchmark names one of Benchmarks(). Required unless Workload is
	// set.
	Benchmark string
	// Workload overrides Benchmark with a custom workload model.
	Workload *Workload
	// Wide8 selects the 8-wide Table 3 machine (default: 4-wide).
	Wide8 bool
	// Scheme is the replay scheme (default PosSel).
	Scheme Scheme
	// Insts is the measured instruction count (default 200k).
	Insts int64
	// Warmup is the unmeasured warmup instruction count (default 60k).
	Warmup int64
	// Seed drives the deterministic workload generator (default 1).
	Seed int64
	// Tokens overrides the token pool size for TkSel (default: the
	// Table 3 value for the selected width).
	Tokens int
	// ValuePrediction enables load value prediction, the
	// data-speculation technique the paper's §3.5 argues selective
	// replay must support. Valid with IDSel, TkSel, ReInsert and
	// Refetch only — the timing-based schemes cannot recover it.
	ValuePrediction bool
	// ReplayQueue selects the Figure 4b replay-queue model instead of
	// the default issue-queue-based model (PosSel/IDSel/NonSel/DSel).
	ReplayQueue bool
}

// Workload is a custom synthetic benchmark model. Zero-valued fields
// are invalid; start from a preset via BenchmarkWorkload and adjust.
type Workload struct {
	// Name labels the workload in output.
	Name string
	// LoadFrac/StoreFrac/BranchFrac set the instruction mix.
	LoadFrac, StoreFrac, BranchFrac float64
	// DepMean controls instruction-level parallelism: the mean distance
	// to the producing instruction (small = long serial chains).
	DepMean float64
	// ColdFrac/WarmFrac set references that miss to memory / hit the
	// L2; the remainder stays cache-resident.
	ColdFrac, WarmFrac float64
	// MissyBias concentrates misses on few static loads (what makes
	// them predictable).
	MissyBias float64
	// AliasFrac sets the store-to-load aliasing rate.
	AliasFrac float64
	// BranchRandFrac sets the fraction of data-dependent (hard to
	// predict) branch sites.
	BranchRandFrac float64
	// StaticInsts is the static code footprint.
	StaticInsts int
}

// BenchmarkWorkload returns an editable copy of a calibrated
// benchmark's workload model.
func BenchmarkWorkload(name string) (Workload, error) {
	p, err := workload.ByName(name)
	if err != nil {
		return Workload{}, err
	}
	return Workload{
		Name: p.Name, LoadFrac: p.LoadFrac, StoreFrac: p.StoreFrac,
		BranchFrac: p.BranchFrac, DepMean: p.DepMean,
		ColdFrac: p.ColdFrac, WarmFrac: p.WarmFrac,
		MissyBias: p.MissyBias, AliasFrac: p.AliasFrac,
		BranchRandFrac: p.BranchRandFrac, StaticInsts: p.StaticInsts,
	}, nil
}

// Result summarizes one simulation.
type Result struct {
	// IPC is retired instructions per cycle.
	IPC float64
	// LoadMissRate is load scheduling misses per load issue (Table 5).
	LoadMissRate float64
	// ReplayRate is replayed issues per total issue (Table 5).
	ReplayRate float64
	// TokenCoverage is the fraction of misses recovered with a token
	// (TkSel only; Table 6).
	TokenCoverage float64
	// BranchMispredictRate is mispredictions per branch.
	BranchMispredictRate float64
	// Stats exposes every raw counter.
	Stats *core.Stats
	// PredictorCoverage[t] is the scheduling-miss predictor's coverage
	// at confidence threshold t (Figure 9a).
	PredictorCoverage [4]float64
	// PredictedFraction[t] is the fraction of loads predicted to miss
	// at threshold t (Figure 9b).
	PredictedFraction [4]float64
	// ValueAccuracy is correct value predictions per consumed
	// prediction (value prediction runs only).
	ValueAccuracy float64
}

// Run simulates one configuration and returns its results.
func Run(opts Options) (*Result, error) {
	prof, err := resolveWorkload(opts)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(prof, seedOr(opts.Seed))
	if err != nil {
		return nil, err
	}
	// The machine comes from the same Spec→Config mapping every command
	// and the service use; only the workload is resolved here, since a
	// custom Workload has no registry name a sim.Spec could carry.
	cfg := sim.Spec{Wide8: opts.Wide8, Scheme: opts.Scheme, Over: sim.Overrides{
		Tokens:          opts.Tokens,
		ValuePrediction: opts.ValuePrediction,
		ReplayQueue:     opts.ReplayQueue,
	}}.Config(sim.Options{
		Insts:  positiveOr(opts.Insts, 200_000),
		Warmup: positiveOr(opts.Warmup, 60_000),
	})
	m, err := core.New(cfg, gen)
	if err != nil {
		return nil, err
	}
	st, err := m.Run()
	if err != nil {
		return nil, err
	}
	res := &Result{
		IPC:           st.IPC(),
		LoadMissRate:  st.LoadMissRate(),
		ReplayRate:    st.ReplayRate(),
		TokenCoverage: st.TokenCoverage(),
		Stats:         st,
	}
	if st.BranchLookups > 0 {
		res.BranchMispredictRate = float64(st.BranchMispredicts) / float64(st.BranchLookups)
	}
	meter := m.Meter()
	for t := 0; t < 4; t++ {
		res.PredictorCoverage[t] = meter.Coverage(smpred.Confidence(t))
		res.PredictedFraction[t] = meter.PredictedFraction(smpred.Confidence(t))
	}
	if vp := m.ValuePredictor(); vp != nil {
		res.ValueAccuracy = vp.Accuracy()
	}
	return res, nil
}

// Comparison holds one benchmark's results across schemes, normalized
// to the first scheme.
type Comparison struct {
	Schemes []Scheme
	Results []*Result
	// RelativeIPC[i] = Results[i].IPC / Results[0].IPC.
	RelativeIPC []float64
	// RelativeIssues[i] mirrors Figure 12's normalized issue counts.
	RelativeIssues []float64
}

// CompareSchemes runs the same workload under several schemes; the
// first scheme is the normalization baseline (use PosSel to mirror the
// paper's figures).
func CompareSchemes(opts Options, schemes ...Scheme) (*Comparison, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("repro: no schemes given")
	}
	c := &Comparison{Schemes: schemes}
	for _, s := range schemes {
		o := opts
		o.Scheme = s
		r, err := Run(o)
		if err != nil {
			return nil, err
		}
		c.Results = append(c.Results, r)
	}
	base := c.Results[0]
	for _, r := range c.Results {
		c.RelativeIPC = append(c.RelativeIPC, r.IPC/base.IPC)
		c.RelativeIssues = append(c.RelativeIssues,
			float64(r.Stats.TotalIssues)/float64(base.Stats.TotalIssues))
	}
	return c, nil
}

func resolveWorkload(opts Options) (workload.Profile, error) {
	if opts.Workload != nil {
		w := opts.Workload
		base := workload.Profile{
			Name: w.Name, LoadFrac: w.LoadFrac, StoreFrac: w.StoreFrac,
			BranchFrac: w.BranchFrac, DepMean: w.DepMean,
			TwoSrcFrac: 0.45,
			ColdFrac:   w.ColdFrac, WarmFrac: w.WarmFrac,
			HotLines: 320, WarmLines: 2800,
			MissyPCFrac: 0.10, MissyBias: w.MissyBias,
			AliasFrac: w.AliasFrac, BranchRandFrac: w.BranchRandFrac,
			AddrReadyFrac: 0.5, StaticInsts: w.StaticInsts,
		}
		return base, base.Validate()
	}
	if opts.Benchmark == "" {
		return workload.Profile{}, fmt.Errorf("repro: Options needs Benchmark or Workload")
	}
	return workload.ByName(opts.Benchmark)
}

func seedOr(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

// positiveOr returns v, or def when v is not positive.
func positiveOr(v, def int64) int64 {
	if v > 0 {
		return v
	}
	return def
}
