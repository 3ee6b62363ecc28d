// Command sweep runs the ablation studies around the paper's design
// choices: token pool size (Table 6 sensitivity), scheduling-miss
// predictor size (Figure 9 sensitivity), pipeline depth
// (propagation-distance scaling, §3.5), window size, the Figure 4b
// replay-queue model, and load value prediction.
//
// All sweeps of one invocation share a single batch engine, so their
// simulations run in parallel and points that denote the same machine
// (a sweep's stock-configuration point, or a point shared between two
// sweeps) simulate once.
//
// Usage:
//
//	sweep -what tokens -bench mcf
//	sweep -what depth,window -bench gcc -scheme NonSel
//	sweep -what rq -journal rq.jsonl
//	sweep -what tokens -remote http://localhost:8080 -json
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"flag"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simflag"
	"repro/internal/stats"
)

// sweep is one ablation study: the specs it derives from the
// flag-selected base spec and how to render their results (outs is in
// spec order).
type sweep struct {
	name  string
	specs func(base sim.Spec) []sim.Spec
	print func(base sim.Spec, outs []*sim.RunOut)
}

// point is one sweep point: the base spec (bench, width and frontend
// overrides) under the given scheme and machine overrides.
func point(base sim.Spec, scheme core.Scheme, over sim.Overrides) sim.Spec {
	over.Bpred, over.Prefetch = base.Over.Bpred, base.Over.Prefetch
	base.Scheme, base.Over = scheme, over
	return base
}

// rqScheme clamps the flag scheme to one the replay-queue model
// supports (PosSel/IDSel/NonSel/DSel), falling back to the paper's
// PosSel baseline otherwise.
func rqScheme(s core.Scheme) core.Scheme {
	switch s {
	case core.PosSel, core.IDSel, core.NonSel, core.DSel:
		return s
	}
	return core.PosSel
}

var tokenSizes = []int{2, 4, 8, 16, 24, 32, 48, 64}
var depths = []int{2, 3, 5, 8, 12, 16}
var predSizes = []int{256, 1024, 4096, 16384}
var windowIQs = []int{16, 32, 64, 128, 256}
var rqIQs = []int{12, 24, 48, 96}
var vpSchemes = []core.Scheme{core.IDSel, core.TkSel, core.ReInsert}

var sweeps = []sweep{
	{
		name: "tokens",
		specs: func(base sim.Spec) []sim.Spec {
			var s []sim.Spec
			for _, n := range tokenSizes {
				s = append(s, point(base, core.TkSel, sim.Overrides{Tokens: n}))
			}
			return s
		},
		print: func(base sim.Spec, outs []*sim.RunOut) {
			fmt.Printf("Token pool sweep (%s, TkSel): coverage and IPC vs pool size\n", base.Bench)
			tb := stats.NewTable("tokens", "coverage", "IPC", "reinserts")
			for i, n := range tokenSizes {
				st := outs[i].Stats
				tb.AddRow(fmt.Sprintf("%d", n), st.TokenCoverage(), st.IPC(),
					fmt.Sprintf("%d", st.ReinsertEvents))
			}
			fmt.Print(tb.String())
		},
	},
	{
		name: "depth",
		specs: func(base sim.Spec) []sim.Spec {
			var s []sim.Spec
			for _, d := range depths {
				s = append(s, point(base, base.Scheme, sim.Overrides{SchedToExec: d}))
			}
			return s
		},
		print: func(base sim.Spec, outs []*sim.RunOut) {
			fmt.Printf("Pipeline-depth sweep (%s, %v): scheduling miss cost vs schedule-to-execute distance\n",
				base.Bench, base.Scheme)
			tb := stats.NewTable("schedToExec", "propDist", "IPC", "replay%")
			for i, d := range depths {
				st := outs[i].Stats
				tb.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", d+1), st.IPC(),
					fmt.Sprintf("%.2f", 100*st.ReplayRate()))
			}
			fmt.Print(tb.String())
		},
	},
	{
		name: "predictor",
		specs: func(base sim.Spec) []sim.Spec {
			var s []sim.Spec
			for _, n := range predSizes {
				s = append(s, point(base, core.TkSel, sim.Overrides{PredEntries: n}))
			}
			return s
		},
		print: func(base sim.Spec, outs []*sim.RunOut) {
			fmt.Printf("Predictor-size sweep (%s, TkSel): coverage vs table entries\n", base.Bench)
			tb := stats.NewTable("entries", "coverage", "IPC")
			for i, n := range predSizes {
				st := outs[i].Stats
				tb.AddRow(fmt.Sprintf("%d", n), st.TokenCoverage(), st.IPC())
			}
			fmt.Print(tb.String())
		},
	},
	{
		name: "window",
		specs: func(base sim.Spec) []sim.Spec {
			var s []sim.Spec
			for _, iq := range windowIQs {
				s = append(s, point(base, base.Scheme,
					sim.Overrides{IQSize: iq, ROBSize: iq * 2, LSQSize: iq}))
			}
			return s
		},
		print: func(base sim.Spec, outs []*sim.RunOut) {
			fmt.Printf("Window sweep (%s, %v): IPC vs issue-queue size\n", base.Bench, base.Scheme)
			tb := stats.NewTable("IQ", "ROB", "IPC", "miss%")
			for i, iq := range windowIQs {
				st := outs[i].Stats
				tb.AddRow(fmt.Sprintf("%d", iq), fmt.Sprintf("%d", iq*2), st.IPC(),
					fmt.Sprintf("%.2f", 100*st.LoadMissRate()))
			}
			fmt.Print(tb.String())
		},
	},
	{
		name: "rq",
		specs: func(base sim.Spec) []sim.Spec {
			scheme := rqScheme(base.Scheme)
			var s []sim.Spec
			for _, iq := range rqIQs {
				s = append(s,
					point(base, scheme, sim.Overrides{IQSize: iq}),
					point(base, scheme, sim.Overrides{IQSize: iq, ReplayQueue: true}))
			}
			return s
		},
		print: func(base sim.Spec, outs []*sim.RunOut) {
			scheme := rqScheme(base.Scheme)
			fmt.Printf("Replay-queue model (Figure 4b) vs issue-queue model (%s, %v) across IQ sizes\n",
				base.Bench, scheme)
			tb := stats.NewTable("IQ", "IPC iq-model", "IPC rq-model", "blind RQ replays")
			for i, iq := range rqIQs {
				a, b := outs[2*i].Stats, outs[2*i+1].Stats
				tb.AddRow(fmt.Sprintf("%d", iq), a.IPC(), b.IPC(), fmt.Sprintf("%d", b.RQReplays))
			}
			fmt.Print(tb.String())
		},
	},
	{
		name: "vp",
		specs: func(base sim.Spec) []sim.Spec {
			var s []sim.Spec
			for _, sch := range vpSchemes {
				s = append(s,
					point(base, sch, sim.Overrides{}),
					point(base, sch, sim.Overrides{ValuePrediction: true}))
			}
			return s
		},
		print: func(base sim.Spec, outs []*sim.RunOut) {
			fmt.Printf("Load value prediction (%s): speedup and recovery traffic per scheme\n", base.Bench)
			tb := stats.NewTable("scheme", "IPC base", "IPC +VP", "mispredicts", "killed insts")
			for i, sch := range vpSchemes {
				a, b := outs[2*i].Stats, outs[2*i+1].Stats
				tb.AddRow(sch.String(), a.IPC(), b.IPC(),
					fmt.Sprintf("%d", b.ValueMispredicts), fmt.Sprintf("%d", b.ValueKilledInsts))
			}
			fmt.Print(tb.String())
		},
	},
}

func main() {
	what := flag.String("what", "tokens", "sweeps to run (comma-separated): tokens, depth, predictor, window, rq, vp")
	jsonOut := flag.Bool("json", false, "emit the results as v1 wire JSON (api.SweepResponse) instead of tables")
	f := simflag.New()
	f.Bench = "mcf"
	f.SchemeName = "TkSel"
	f.Wide8 = true
	f.Insts = 100_000
	f.RegisterBench(flag.CommandLine)
	f.RegisterMachine(flag.CommandLine)
	f.RegisterLength(flag.CommandLine)
	f.RegisterSeed(flag.CommandLine)
	f.RegisterBatch(flag.CommandLine)
	f.RegisterCheck(flag.CommandLine)
	f.RegisterRemote(flag.CommandLine)
	flag.Parse()

	if f.HandleListSchemes(os.Stdout) {
		return
	}
	if err := f.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var todo []sweep
	for _, name := range strings.Split(*what, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, sw := range sweeps {
			if sw.name == name {
				todo = append(todo, sw)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown sweep %q\n", name)
			os.Exit(2)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	status := simflag.NewStatus(os.Stderr, f.Progress)
	opts := f.Options()
	opts.OnProgress = status.Update
	runner, stopRunner := f.Runner(ctx, opts)

	// One RunAll over every sweep's specs: points run in parallel and
	// duplicates across sweeps simulate once (locally in the engine's
	// memoization, remotely in the server's store and singleflight).
	var all []sim.Spec
	base := f.Spec()
	for _, sw := range todo {
		all = append(all, sw.specs(base)...)
	}
	outs, err := runner.RunAll(ctx, all)
	stopRunner()
	status.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if ctx.Err() != nil && f.Journal != "" && f.Remote == "" {
			fmt.Fprintf(os.Stderr, "interrupted; rerun with -journal %s to resume\n", f.Journal)
		}
		os.Exit(1)
	}

	if *jsonOut {
		resp := api.SweepResponse{API: api.Version, Results: make([]*api.Result, len(outs))}
		for i, out := range outs {
			resp.Results[i] = api.FromRunOut(out, opts.Insts, opts.Warmup, opts.Seed)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	i := 0
	for _, sw := range todo {
		n := len(sw.specs(base))
		sw.print(base, outs[i:i+n])
		i += n
	}

	if eng, ok := runner.(*sim.Engine); ok {
		snap := eng.Snapshot()
		fmt.Fprintf(os.Stderr, "%d spec requests, %d distinct simulations cached, %d resumed from journal\n",
			snap.Queued, eng.Cached(), snap.Resumed)
	}
}
