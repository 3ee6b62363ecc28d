package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// heavyBenches spend the most issue slots on replays (mcf most of all);
// heavySchemes are the recovery mechanisms that do that work — kills,
// squashes, re-insert, refetch, serial propagation — plus the PosSel
// baseline that gives the run its IPC error against Table 4.
var (
	heavyBenches = []string{"mcf", "parser"}
	heavySchemes = []core.Scheme{core.NonSel, core.ReInsert, core.Refetch, core.TkSel, core.SerialVerify, core.PosSel}
)

// heavy runs a fixed list of long 8-wide simulations on one simulation
// thread.
type heavy struct {
	sz   sizes
	opts sim.Options
	dir  string
	or   *oracles
	list []sim.Spec

	journal string
	want    map[sim.Spec]*core.Stats // the latest round's results
}

func newHeavy(seed int64, sz sizes, dir string) (*heavy, error) {
	h := &heavy{sz: sz, dir: dir, opts: sim.Options{
		Insts:       sz.heavyInsts,
		Warmup:      sz.heavyWarmup,
		Seed:        streamSeed,
		Parallelism: 1,
	}}
	for _, b := range heavyBenches {
		for _, s := range heavySchemes {
			h.list = append(h.list, sim.Spec{Bench: b, Wide8: true, Scheme: s})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(h.list), func(i, j int) { h.list[i], h.list[j] = h.list[j], h.list[i] })
	or, err := newOracles(h.list, h.opts)
	if err != nil {
		return nil, err
	}
	h.or = or
	return h, nil
}

func (h *heavy) options() sim.Options { return h.opts }
func (h *heavy) specs() []sim.Spec    { return append([]sim.Spec(nil), h.list...) }

func (h *heavy) round(r *recorder, pl *progressLog) error {
	dir, err := roundDir(h.dir)
	if err != nil {
		return err
	}
	opts := h.opts
	opts.Journal = filepath.Join(dir, "journal.jsonl")
	if pl != nil {
		opts.OnProgress = pl.observe
	}
	ctx := context.Background()
	want := make(map[sim.Spec]*core.Stats, len(h.list))
	var eng *sim.Engine
	wall, _ := r.seg(func() error { eng = sim.NewEngine(opts); return nil })
	for _, s := range h.list {
		var out *sim.RunOut
		d, err := r.seg(func() error {
			var err error
			out, err = eng.Run(ctx, s)
			return err
		})
		if err != nil {
			eng.Close()
			return err
		}
		wall += d
		r.misses = append(r.misses, d*1e3)
		want[out.Spec] = out.Stats
	}
	d, err := r.seg(eng.Close)
	if err != nil {
		return err
	}
	wall += d
	simulated := int64(eng.Cached())
	r.rounds = append(r.rounds, wall)
	r.rates = append(r.rates, float64(eng.Snapshot().Insts+simulated*opts.Warmup)/wall/1e6)
	r.simulated = simulated

	var errSum float64
	n := 0
	for s, st := range want {
		r.check(h.or.verify(s, st))
		if s.Scheme == core.PosSel {
			errSum += paperIPCError(s, st.IPC())
			n++
		}
	}
	r.ipcErrPct = 100 * errSum / float64(n)
	if h.journal != "" {
		os.RemoveAll(filepath.Dir(h.journal))
	}
	h.journal, h.want = opts.Journal, want
	return nil
}

// setupUnit builds the generator and machine of every spec in the list:
// the per-run construction a simulation pays before its first cycle.
func (h *heavy) setupUnit(r *recorder) error {
	d, err := r.seg(func() error {
		for _, s := range h.list {
			prof, err := workload.ByName(s.Bench)
			if err != nil {
				return err
			}
			gen, err := workload.NewGenerator(prof, h.opts.Seed)
			if err != nil {
				return err
			}
			if _, err := core.New(s.Config(h.opts), gen); err != nil {
				return err
			}
		}
		return nil
	})
	r.check(err)
	r.setups = append(r.setups, d)
	return err
}

// hitUnit restarts an engine from the latest round's journal and asks
// it for every spec of the list again, one Engine.Run per spec as a
// sim.Runner client does: one request answers the whole list, from the
// journal the first time and from the memo after, never simulating.
// The answers must equal the round's.
func (h *heavy) hitUnit(r *recorder) error {
	opts := h.opts
	opts.Journal = h.journal
	var eng *sim.Engine
	load, _ := r.seg(func() error { eng = sim.NewEngine(opts); return nil })
	r.journalLoads = append(r.journalLoads, load*1e3)
	defer eng.Close()
	ctx := context.Background()
	outs := make([]*sim.RunOut, len(h.list))
	n := h.sz.hitsPerUnit
	var busy float64
	for c := 0; c < n; c += hitChunk {
		d, err := r.seg(func() error {
			a0 := mallocs()
			for i := c; i < min(c+hitChunk, n); i++ {
				c0 := time.Now()
				for j, s := range h.list {
					var err error
					if outs[j], err = eng.Run(ctx, s); err != nil {
						return err
					}
				}
				r.hits = append(r.hits, us(time.Since(c0)))
				r.check(h.same(outs, eng))
			}
			r.hitAllocs += mallocs() - a0
			return nil
		})
		if err != nil {
			return err
		}
		busy += d
	}
	r.hitRates = append(r.hitRates, float64(n)/busy)
	return nil
}

// same checks a resumed engine's answers against the round's results.
func (h *heavy) same(outs []*sim.RunOut, eng *sim.Engine) error {
	if n := eng.Snapshot().Insts; n != 0 {
		return fmt.Errorf("replay-heavy: resumed engine simulated %d insts", n)
	}
	for _, out := range outs {
		want := h.want[out.Spec]
		if want == nil || out.Stats.RetireHash != want.RetireHash || out.Stats.Cycles != want.Cycles ||
			out.Stats.TotalIssues != want.TotalIssues {
			return fmt.Errorf("replay-heavy: resumed %s differs from the round's result", out.Spec)
		}
	}
	return nil
}

// paperIPCError is a PosSel run's |simulated - paper| / paper IPC
// against Table 4.
func paperIPCError(s sim.Spec, ipc float64) float64 {
	for i, b := range experiments.Benchmarks() {
		if b == s.Bench {
			ref := experiments.PaperIPC4[i]
			if s.Wide8 {
				ref = experiments.PaperIPC8[i]
			}
			return math.Abs(ipc-ref) / ref
		}
	}
	return math.NaN()
}

func sortedSpecs(set map[sim.Spec]bool) []sim.Spec {
	out := make([]sim.Spec, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
