package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

type renderer interface{ Render() string }

// experiment is one table or figure of the paper, as cmd/paper runs it.
type experiment struct {
	name string
	run  func(*experiments.Engine) (renderer, error)
}

func exp[T renderer](name string, f func(*experiments.Engine) (T, error)) experiment {
	return experiment{name, func(e *experiments.Engine) (renderer, error) {
		v, err := f(e)
		if err != nil {
			return nil, err
		}
		return v, nil
	}}
}

// paperExperiments are Tables 4–6 and Figures 3, 9, 12 and 13: nine
// schemes over twelve benches at two widths, with shared baselines.
var paperExperiments = []experiment{
	exp("table4", experiments.RunTable4),
	exp("table5", experiments.RunTable5),
	exp("table6", experiments.RunTable6),
	exp("fig3", experiments.RunFigure3),
	exp("fig9", experiments.RunFigure9),
	exp("fig12", experiments.RunFigure12),
	exp("fig13", experiments.RunFigure13),
}

// paper regenerates the paper's evaluation on one engine per round, as
// a reader of the paper does with cmd/paper -journal.
type paper struct {
	sz   sizes
	opts sim.Options
	dir  string
	or   *oracles

	order    []int             // the seeded order of the hit requests
	journal  string            // the latest round's journal
	rendered []string          // the latest round's output, per experiment
	ran      map[sim.Spec]bool // the distinct specs the first round simulated
}

func newPaper(seed int64, sz sizes, dir string) (*paper, error) {
	p := &paper{sz: sz, dir: dir, opts: sim.Options{
		Insts:       sz.paperInsts,
		Warmup:      sz.paperWarmup,
		Seed:        streamSeed,
		Parallelism: runtime.NumCPU(),
	}}
	var streams []sim.Spec
	for _, b := range experiments.Benchmarks() {
		streams = append(streams, sim.Spec{Bench: b}, sim.Spec{Bench: b, Wide8: true})
	}
	p.order = rand.New(rand.NewSource(seed)).Perm(len(paperExperiments))
	or, err := newOracles(streams, p.opts)
	if err != nil {
		return nil, err
	}
	p.or = or
	return p, nil
}

func (p *paper) options() sim.Options { return p.opts }

func (p *paper) specs() []sim.Spec { return sortedSpecs(p.ran) }

func (p *paper) round(r *recorder, pl *progressLog) error {
	dir, err := roundDir(p.dir)
	if err != nil {
		return err
	}
	opts := p.opts
	opts.Journal = filepath.Join(dir, "journal.jsonl")
	if pl != nil {
		opts.OnProgress = pl.observe
	}
	var eng *experiments.Engine
	wall, _ := r.seg(func() error {
		eng = experiments.NewEngineContext(context.Background(), opts)
		return nil
	})
	rendered := make([]string, len(paperExperiments))
	var t4 *experiments.Table4
	for i, x := range paperExperiments {
		before := eng.Sim().Cached()
		var out renderer
		d, err := r.seg(func() error {
			var err error
			if out, err = x.run(eng); err == nil {
				rendered[i] = out.Render()
			}
			return err
		})
		wall += d
		if err != nil {
			eng.Close()
			return fmt.Errorf("paper: %s: %w", x.name, err)
		}
		if eng.Sim().Cached() > before {
			r.misses = append(r.misses, d*1e3)
		}
		if t, ok := out.(*experiments.Table4); ok {
			t4 = t
		}
	}
	d, err := r.seg(eng.Close)
	if err != nil {
		return err
	}
	wall += d
	snap := eng.Sim().Snapshot()
	simulated := int64(eng.Sim().Cached())
	r.rounds = append(r.rounds, wall)
	r.rates = append(r.rates, float64(snap.Insts+simulated*opts.Warmup)/wall/1e6)
	r.simulated = simulated
	r.ipcErrPct = table4Error(t4)

	// Output check, outside the timed round: every simulation the
	// journal holds retired the oracle's stream, and the round ran the
	// same spec set as the first.
	runs, _, err := sim.ReadJournal(opts.Journal, opts)
	if err != nil {
		return err
	}
	if p.ran == nil {
		p.ran = make(map[sim.Spec]bool, len(runs))
		for s := range runs {
			p.ran[s] = true
		}
	}
	if len(runs) != len(p.ran) {
		r.check(fmt.Errorf("paper: round journaled %d specs, first round %d", len(runs), len(p.ran)))
	}
	for s, out := range runs {
		if !p.ran[s] {
			r.check(fmt.Errorf("paper: %s not simulated by the first round", s))
		}
		r.check(p.or.verify(s, out.Stats))
	}
	if p.journal != "" {
		os.RemoveAll(filepath.Dir(p.journal))
	}
	p.journal, p.rendered = opts.Journal, rendered
	return nil
}

// setupUnit restarts an engine over the latest round's journal: the
// cmd/paper -journal resume.
func (p *paper) setupUnit(r *recorder) error {
	opts := p.opts
	opts.Journal = p.journal
	d, err := r.seg(func() error { return experiments.NewEngine(opts).Close() })
	r.check(err)
	r.setups = append(r.setups, d)
	r.journalLoads = append(r.journalLoads, d*1e3)
	return err
}

// hitUnit re-renders every experiment on an engine restarted from the
// journal: each call is answered from the journal or the memo without
// simulating, and its output must equal the round's.
func (p *paper) hitUnit(r *recorder) error {
	opts := p.opts
	opts.Journal = p.journal
	eng := experiments.NewEngine(opts)
	defer eng.Close()
	out := make([]string, p.sz.hitsPerUnit)
	var busy float64
	for c := 0; c < len(out); c += hitChunk {
		d, err := r.seg(func() error {
			a0 := mallocs()
			for i := c; i < min(c+hitChunk, len(out)); i++ {
				x := paperExperiments[p.order[i%len(p.order)]]
				c0 := time.Now()
				v, err := x.run(eng)
				if err == nil {
					out[i] = v.Render()
				}
				r.hits = append(r.hits, us(time.Since(c0)))
				if err != nil {
					return fmt.Errorf("paper: resumed %s: %w", x.name, err)
				}
			}
			r.hitAllocs += mallocs() - a0
			return nil
		})
		if err != nil {
			return err
		}
		busy += d
	}
	r.hitRates = append(r.hitRates, float64(len(out))/busy)
	for i, s := range out {
		x := p.order[i%len(p.order)]
		if s != p.rendered[x] {
			r.check(fmt.Errorf("paper: resumed %s differs from the round's output", paperExperiments[x].name))
		} else {
			r.check(nil)
		}
	}
	if snap := eng.Sim().Snapshot(); snap.Insts != 0 {
		r.check(fmt.Errorf("paper: resumed engine simulated %d insts", snap.Insts))
	}
	return nil
}

// table4Error is the mean |simulated - paper| / paper base IPC over
// Table 4's benches and widths, in percent.
func table4Error(t *experiments.Table4) float64 {
	if t == nil {
		return math.NaN()
	}
	var sum float64
	n := 0
	for i := range t.Bench {
		sum += math.Abs(t.IPC4[i]-t.PaperIPC4[i]) / t.PaperIPC4[i]
		sum += math.Abs(t.IPC8[i]-t.PaperIPC8[i]) / t.PaperIPC8[i]
		n += 2
	}
	return 100 * sum / float64(n)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
