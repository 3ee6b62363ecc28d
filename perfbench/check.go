package main

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/sim"
)

type streamKey struct {
	bench string
	wide8 bool
}

// oracles holds the magic-scheduler reference for every instruction
// stream a workload simulates, computed before timing starts. A correct
// run of any scheme retires exactly the oracle's stream (same digest)
// and cannot beat its cycle bounds.
type oracles struct {
	opts sim.Options
	ref  map[streamKey]check.OracleResult
}

func newOracles(specs []sim.Spec, opts sim.Options) (*oracles, error) {
	o := &oracles{opts: opts, ref: make(map[streamKey]check.OracleResult)}
	for _, s := range specs {
		k := streamKey{s.Bench, s.Wide8}
		if _, ok := o.ref[k]; ok {
			continue
		}
		r, err := check.RunOracle(s.Bench, opts.Seed, s.Wide8, opts.Warmup, opts.Insts)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", s, err)
		}
		o.ref[k] = r
	}
	return o, nil
}

func (o *oracles) lookup(spec sim.Spec) (check.OracleResult, error) {
	r, ok := o.ref[streamKey{spec.Bench, spec.Wide8}]
	if !ok {
		return r, fmt.Errorf("%s: no oracle for this stream", spec)
	}
	return r, nil
}

// verify checks one engine result. The retired-stream digest must equal
// the oracle's. The run's Cycles cover only the measured window after
// warmup, where the whole-stream dataflow bound does not apply (the
// rule check.Diff follows too), so the window is held to the part of
// the bound that holds for any window: at most Width retirements per
// cycle.
func (o *oracles) verify(spec sim.Spec, st *core.Stats) error {
	r, err := o.lookup(spec)
	if err != nil {
		return err
	}
	if st.RetireHash != r.Hash {
		return fmt.Errorf("%s: retire hash %#x, oracle %#x", spec, st.RetireHash, r.Hash)
	}
	width := int64(spec.Config(o.opts).Width)
	if st.Cycles*width < st.Retired {
		return fmt.Errorf("%s: %d retired in %d cycles exceeds width %d", spec, st.Retired, st.Cycles, width)
	}
	return nil
}

// verifyWhole checks a run made without warmup over the oracle's whole
// window: same digest, and no fewer cycles than the dataflow limit.
func (o *oracles) verifyWhole(spec sim.Spec, st *core.Stats) error {
	r, err := o.lookup(spec)
	if err != nil {
		return err
	}
	if st.RetireHash != r.Hash {
		return fmt.Errorf("%s: retire hash %#x, oracle %#x", spec, st.RetireHash, r.Hash)
	}
	if st.Cycles < r.IdealCycles {
		return fmt.Errorf("%s: %d cycles beat the oracle's dataflow limit %d", spec, st.Cycles, r.IdealCycles)
	}
	return nil
}
