package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/api"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/smpred"
	"repro/internal/workload"
)

// layerMetrics maps a per-layer metric name to its value and unit.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, v float64, unit string) {
	m[name] = metric{Value: v, Unit: unit}
}

// sliceStream replays a pre-generated instruction stream and continues
// from the generator if the machine fetches past its end.
type sliceStream struct {
	insts []isa.Inst
	i     int
	more  workload.Stream
}

func (s *sliceStream) Next() isa.Inst {
	if s.i < len(s.insts) {
		in := s.insts[s.i]
		s.i++
		return in
	}
	return s.more.Next()
}

// simTotals accumulates the simulated counts of the breakdown runs.
type simTotals struct {
	retired, cycles, events                         float64
	issues, firstIssues, loadIssues                 float64
	schedMisses, cacheMisses, memMisses             float64
	branches, mispredicts                           float64
	tokSchedMisses, tokCovered, smMisses, smCovered float64
	genInsts                                        float64
}

// simBreakdown simulates every spec once, outside the engine, timing
// each layer the engine would call: workload.NewGenerator,
// Generator.Generate, core.New and Machine.Run over the pre-generated
// stream. It runs each spec without warmup over the same window
// (Warmup+Insts retirements), so every statistic covers the whole run
// and the oracle's full dataflow bound applies. It returns one
// pre-generated stream per bench for the standalone cache and branch
// predictor drivers.
func simBreakdown(tr *tracer, specs []sim.Spec, opts sim.Options, r *recorder) (*simTotals, map[string][]isa.Inst, error) {
	or, err := newOracles(specs, opts)
	if err != nil {
		return nil, nil, err
	}
	tot := &simTotals{}
	streams := make(map[string][]isa.Inst)
	n := opts.Warmup + opts.Insts
	for _, s := range specs {
		prof, err := workload.ByName(s.Bench)
		if err != nil {
			return nil, nil, err
		}
		cfg := s.Config(opts)
		cfg.Warmup, cfg.MaxInsts = 0, n
		root := tr.begin("sim.spec", -1)
		sp := tr.begin("workload.new", root)
		gen, err := workload.NewGenerator(prof, opts.Seed)
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		slack := cfg.ROBSize + cfg.Width*(cfg.FrontEndDepth+2)
		sp = tr.begin("workload.generate", root)
		insts := gen.Generate(int(n) + slack)
		tr.end(sp)
		sp = tr.begin("core.new", root)
		m, err := core.New(cfg, &sliceStream{insts: insts, more: gen})
		tr.end(sp)
		if err != nil {
			return nil, nil, err
		}
		sp = tr.begin("core.run", root)
		st, err := m.Run()
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", s, err)
		}
		r.check(or.verifyWhole(s, st))
		if _, ok := streams[s.Bench]; !ok {
			streams[s.Bench] = insts
		}
		tot.genInsts += float64(len(insts))
		tot.retired += float64(st.Retired)
		tot.cycles += float64(st.Cycles)
		tot.events += float64(m.EventCount())
		tot.issues += float64(st.TotalIssues)
		tot.firstIssues += float64(st.FirstIssues)
		tot.loadIssues += float64(st.LoadIssues)
		tot.schedMisses += float64(st.LoadSchedMisses)
		tot.cacheMisses += float64(st.CacheMisses)
		tot.memMisses += float64(st.MissMemory)
		tot.branches += float64(st.BranchLookups)
		tot.mispredicts += float64(st.BranchMispredicts)
		if s.Scheme == core.TkSel {
			tot.tokSchedMisses += float64(st.LoadSchedMisses)
			tot.tokCovered += float64(st.Policy.MissesWithToken)
		}
		_, misses := m.Meter().Totals()
		tot.smMisses += float64(misses)
		tot.smCovered += m.Meter().Coverage(smpred.Confidence(2)) * float64(misses)
	}
	return tot, streams, nil
}

// frontendDrivers drives the cache hierarchy and the branch predictor
// standalone with the generated streams: Hierarchy.Data for every load
// and store, Lookup+Update for every branch. Each is the median over
// five passes.
func frontendDrivers(streams map[string][]isa.Inst, cfg core.Config) (nsPerAccess, nsPerBranch float64) {
	benches := make([]string, 0, len(streams))
	for b := range streams {
		benches = append(benches, b)
	}
	sort.Strings(benches)
	var accRuns, brRuns []float64
	for pass := 0; pass < 5; pass++ {
		var accT, brT time.Duration
		var acc, br int
		for _, b := range benches {
			insts := streams[b]
			h := cache.NewHierarchy(cfg.Hierarchy)
			t0 := time.Now()
			for i := range insts {
				if c := insts[i].Class; c == isa.Load || c == isa.Store {
					h.Data(insts[i].Addr, int64(i/cfg.Width))
					acc++
				}
			}
			accT += time.Since(t0)
			p := bpred.New(cfg.Bpred)
			t0 = time.Now()
			for i := range insts {
				if insts[i].Class == isa.Branch {
					pr := p.Lookup(insts[i].PC)
					p.Update(insts[i].PC, pr, insts[i].Taken, insts[i].Target)
					br++
				}
			}
			brT += time.Since(t0)
		}
		accRuns = append(accRuns, float64(accT.Nanoseconds())/float64(max(acc, 1)))
		brRuns = append(brRuns, float64(brT.Nanoseconds())/float64(max(br, 1)))
	}
	return median(accRuns), median(brRuns)
}

// serveProbe times the service layers on request bytes for the given
// specs. The miss path (simulate, encode, store write) is timed once
// per spec; the hit path is timed per layer on the same request bytes
// the server decodes, then end to end over loopback, and the remainder
// is the HTTP layer's own share.
func serveProbe(specs []sim.Spec, opts sim.Options, dir string, r *recorder) (layerMetrics, error) {
	m := layerMetrics{}
	if len(specs) > 4 {
		specs = specs[:4]
	}
	opts.Parallelism, opts.Journal, opts.OnProgress = 1, "", nil
	ctx := context.Background()
	storeDir := filepath.Join(dir, "probe-store")
	defer os.RemoveAll(storeDir)
	st, err := serve.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	var simMs, encUs, putMs []float64
	keys := make([]string, len(specs))
	for i, s := range specs {
		eng := sim.NewEngine(opts)
		t0 := time.Now()
		out, err := eng.Run(ctx, s)
		simMs = append(simMs, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		res := api.FromRunOut(out, opts.Insts, opts.Warmup, opts.Seed)
		b, err := json.Marshal(res)
		encUs = append(encUs, us(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		err = st.Put(res.Key, b)
		putMs = append(putMs, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		keys[i] = res.Key
	}
	m.set("serve.miss_sim_ms", median(simMs), "ms")
	m.set("api.encode_us", median(encUs), "us")
	m.set("serve.store_put_ms", median(putMs), "ms")
	var opens []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if st, err = serve.OpenStore(storeDir); err != nil {
			return nil, err
		}
		opens = append(opens, ms(time.Since(t0)))
	}
	if len(r.storeOpens) > 0 { // the workload's own store
		opens = r.storeOpens
	}
	m.set("serve.store_open_ms", median(opens), "ms")

	bodies := make([][]byte, len(specs))
	wire := make([]api.Spec, len(specs))
	for i, s := range specs {
		wire[i] = api.FromSimSpec(s)
		if bodies[i], err = json.Marshal(api.RunRequest{Spec: wire[i]}); err != nil {
			return nil, err
		}
	}
	for _, k := range keys { // warm the store's memory index
		st.Get(k)
	}
	const calls = 4000
	type layer struct {
		name string
		f    func(i int) error
	}
	layers := []layer{
		{"serve.decode", func(i int) error {
			var req api.RunRequest
			return json.NewDecoder(io.LimitReader(bytes.NewReader(bodies[i]), 1<<20)).Decode(&req)
		}},
		{"serve.normalize", func(i int) error {
			spec, err := wire[i].ToSim()
			if err == nil {
				_, err = workload.ByName(spec.Bench)
			}
			opts.NormalizeSpec(spec)
			return err
		}},
		{"api.key", func(i int) error {
			api.Key(specs[i], opts.Insts, opts.Warmup, opts.Seed)
			return nil
		}},
		{"serve.store_get", func(i int) error {
			if _, ok := st.Get(keys[i]); !ok {
				return fmt.Errorf("probe store lost %s", keys[i])
			}
			return nil
		}},
	}
	var partUs, partAllocs float64
	for _, l := range layers {
		lat := make([]float64, 0, calls)
		for c := 0; c < calls; c++ {
			t0 := time.Now()
			err := l.f(c % len(specs))
			lat = append(lat, us(time.Since(t0)))
			if err != nil {
				return nil, err
			}
		}
		c := 0
		allocs := allocsPer(calls, func() { _ = l.f(c % len(specs)); c++ })
		m.set(l.name+"_us", median(lat), "us")
		m.set(l.name+"_allocs", allocs, "count")
		partUs += median(lat)
		partAllocs += allocs
	}

	eng := sim.NewEngine(opts)
	defer eng.Close()
	srv, err := serve.New(serve.Config{Store: st, Engine: eng})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	live, err := startHTTP(srv)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer client.CloseIdleConnections()
	post := func(i int) (string, error) {
		resp, err := client.Post(live.base+api.PathPrefix+"/run", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("probe: HTTP %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Cache"), err
	}
	lat := make([]float64, 0, calls)
	hits := 0
	a0 := mallocs()
	for c := 0; c < calls; c++ {
		t0 := time.Now()
		tier, err := post(c % len(specs))
		lat = append(lat, us(time.Since(t0)))
		r.check(err)
		if tier == "hit" {
			hits++
		}
	}
	reqAllocs := float64(mallocs()-a0) / calls
	if err := live.stop(); err != nil {
		return nil, err
	}
	m.set("serve.http_self_us", median(lat)-partUs, "us")
	m.set("serve.http_self_allocs", reqAllocs-partAllocs, "count")
	hitFrac := float64(hits) / calls
	if r.tierTotal > 0 {
		hitFrac = float64(r.tierHits) / float64(r.tierTotal)
	}
	m.set("serve.hit_frac", hitFrac, "ratio")
	return m, nil
}

// roundTrace is what one traced round observed.
type roundTrace struct {
	wall, busy, full, area time.Duration
	done, simulated        int64
}

// traceRun is the traced run: untraced and traced rounds alternate (the
// difference of their medians is the tracing overhead; each round is
// normalized as a whole, so no reference runs inside a traced round),
// set-up and hit units fill the journal and store timings, and then the
// layer probes run on the workload's own specs. The layer times are raw
// host times; host.ref_ms gives the host's speed while they ran.
func traceRun(name string, w load, seconds float64, sz sizes, dir string) (layerMetrics, *recorder, error) {
	r := &recorder{}
	tr := newTracer()
	opts := w.options()
	var plain, traced []float64
	var gcs []gcDelta
	var rounds []roundTrace
	clk := newHostClock(opts.Parallelism)
	do := func(f func() error) error {
		m := r.mark()
		err := f()
		r.normalize(m, clk.factor())
		return err
	}
	deadline := time.Now().Add(time.Duration(seconds * 0.6 * float64(time.Second)))
	for len(traced) < 3 || time.Now().Before(deadline) {
		g0 := gcSnapshot()
		if err := do(func() error { return w.round(r, nil) }); err != nil {
			return nil, r, err
		}
		gcs = append(gcs, gcSince(g0))
		plain = append(plain, r.rounds[len(r.rounds)-1])

		pl := newProgressLog(opts.Parallelism)
		root := -1
		err := do(func() error {
			root = tr.begin(name+".round", -1)
			err := w.round(r, pl)
			tr.end(root)
			return err
		})
		if err != nil {
			return nil, r, err
		}
		pl.finish()
		rt := roundTrace{full: pl.full, area: pl.area, done: pl.snap.Done, simulated: r.simulated}
		rt.wall = tr.spans[root].end - tr.spans[root].start
		for _, b := range pl.busy {
			id := tr.add("sim.busy", root, b[0], b[1])
			rt.busy += tr.spans[id].end - tr.spans[id].start
		}
		rounds = append(rounds, rt)
		traced = append(traced, r.rounds[len(r.rounds)-1])

		if err := do(func() error { return w.setupUnit(r) }); err != nil {
			return nil, r, err
		}
		if err := do(func() error { return w.hitUnit(r) }); err != nil {
			return nil, r, err
		}
	}

	m := layerMetrics{}
	m.set("trace.overhead_pct", 100*(median(traced)/median(plain)-1), "%")
	m.set("host.ref_ms", 1e3*median(clk.refs), "ms")
	var cycles, pause, alloc []float64
	for _, g := range gcs {
		cycles = append(cycles, float64(g.cycles))
		pause = append(pause, float64(g.pauseNs)/1e6)
		alloc = append(alloc, float64(g.allocB)/(1<<20))
	}
	m.set("go.gc_cycles", median(cycles), "count")
	m.set("go.gc_pause_ms", median(pause), "ms")
	m.set("go.alloc_mb", median(alloc), "MB")

	specs := w.specs()
	tot, streams, err := simBreakdown(tr, specs, opts, r)
	if err != nil {
		return nil, r, err
	}
	total, self := tr.layerTimes()
	secs := func(d time.Duration) float64 { return d.Seconds() }
	ms1 := func(xs []float64) float64 { return 1e3 * median(xs) }
	m.set("workload.new_ms", ms1(tr.durations("workload.new")), "ms")
	m.set("workload.ns_per_inst", 1e9*secs(total["workload.generate"])/tot.genInsts, "ns")
	m.set("core.new_ms", ms1(tr.durations("core.new")), "ms")
	m.set("core.run_s", secs(total["core.run"]), "s")
	m.set("core.ns_per_cycle", 1e9*secs(total["core.run"])/tot.cycles, "ns")
	m.set("core.ns_per_event", 1e9*secs(total["core.run"])/tot.events, "ns")
	m.set("core.events_per_inst", tot.events/tot.retired, "ratio")
	m.set("core.issues_per_retire", tot.issues/tot.retired, "ratio")
	m.set("core.replay_rate", (tot.issues-tot.firstIssues)/tot.issues, "ratio")
	m.set("core.ipc", tot.retired/tot.cycles, "inst/cycle")
	m.set("cache.sched_miss_per_kload", 1000*tot.schedMisses/tot.loadIssues, "count")
	m.set("cache.mem_miss_frac", ratio(tot.memMisses, tot.cacheMisses), "ratio")
	m.set("bpred.mispredict_rate", ratio(tot.mispredicts, tot.branches), "ratio")
	m.set("smpred.coverage", ratio(tot.smCovered, tot.smMisses), "ratio")
	m.set("token.coverage", ratio(tot.tokCovered, tot.tokSchedMisses), "ratio")
	cfg := specs[0].Config(opts)
	acc, br := frontendDrivers(streams, cfg)
	m.set("cache.ns_per_access", acc, "ns")
	m.set("bpred.ns_per_branch", br, "ns")

	// The engine layer, from the traced rounds' progress: the round's
	// self time is its wall time with no simulation in flight; the
	// running-count integral minus the breakdown's simulation work is
	// the engine's own time (thread-seconds), reported even when noise
	// makes it negative.
	simWork := secs(total["sim.spec"]) - secs(self["sim.spec"])
	var busy, full, wall, area, done, memo float64
	for _, rt := range rounds {
		busy += secs(rt.busy)
		full += secs(rt.full)
		wall += secs(rt.wall)
		area += secs(rt.area)
		done += float64(rt.done)
		memo += float64(rt.done - rt.simulated)
	}
	n := float64(len(rounds))
	m.set("sim.journal_load_ms", median(r.journalLoads), "ms")
	m.set("sim.busy_frac", busy/wall, "ratio")
	m.set("sim.pool_full_frac", full/wall, "ratio")
	m.set("sim.memo_hit_frac", ratio(memo, done), "ratio")
	m.set("sim.self_s", area/n-simWork, "s")
	m.set("experiments.idle_s", secs(self[name+".round"])/n, "s")

	sm, err := serveProbe(specs, opts, dir, r)
	if err != nil {
		return nil, r, err
	}
	for k, v := range sm {
		m[k] = v
	}
	return m, r, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
