// Command replaysim runs one simulation of the speculative-scheduling
// machine and prints its scheduler statistics — locally, or on a simd
// server with -remote.
//
// Usage:
//
//	replaysim -bench gcc -scheme TkSel -wide8 -insts 200000
//	replaysim -bench mcf -scheme TkSel -json
//	replaysim -remote http://localhost:8080 -bench mcf -scheme TkSel
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/simflag"
	"repro/internal/smpred"
)

func main() {
	f := simflag.New()
	f.RegisterBench(flag.CommandLine)
	f.RegisterMachine(flag.CommandLine)
	f.RegisterLength(flag.CommandLine)
	f.RegisterSeed(flag.CommandLine)
	f.RegisterCheck(flag.CommandLine)
	f.RegisterRemote(flag.CommandLine)
	tokens := flag.Int("tokens", 0, "token pool override for TkSel (0 = Table 3 default)")
	jsonOut := flag.Bool("json", false, "emit the result as v1 wire JSON (api.Result) instead of text")
	flag.Parse()

	if f.HandleListSchemes(os.Stdout) {
		return
	}
	if err := f.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	check, _ := f.Check()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := f.Options()
	opts.Parallelism = 1
	runner, stopRunner := f.Runner(ctx, opts)
	spec := f.Spec()
	spec.Over.Tokens, spec.Over.Check = *tokens, check
	out, err := runner.Run(ctx, spec)
	stopRunner()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(api.FromRunOut(out, opts.Insts, opts.Warmup, opts.Seed)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	st := out.Stats
	fmt.Printf("%s on %s, %v replay\n", f.Bench, out.Spec.Width(), spec.Scheme)
	fmt.Printf("  IPC                     %.4f (%d instructions, %d cycles)\n", st.IPC(), st.Retired, st.Cycles)
	fmt.Printf("  load scheduling misses  %.2f%% of load issues (%d; cache %d, alias %d)\n",
		100*st.LoadMissRate(), st.LoadSchedMisses, st.CacheMisses, st.AliasMisses)
	fmt.Printf("  replayed issues         %.2f%% of total issues (%d of %d)\n",
		100*st.ReplayRate(), st.TotalIssues-st.FirstIssues, st.TotalIssues)
	branchRate := 0.0
	if st.BranchLookups > 0 {
		branchRate = float64(st.BranchMispredicts) / float64(st.BranchLookups)
	}
	fmt.Printf("  branch mispredicts      %.2f%% of branches\n", 100*branchRate)
	if spec.Scheme == core.TkSel {
		fmt.Printf("  token coverage          %.1f%% of misses (stolen %d, refused %d)\n",
			100*st.TokenCoverage(), st.Policy.MissTokenStolen, st.Policy.MissTokenRefused)
	}
	if st.ReinsertEvents > 0 {
		fmt.Printf("  re-insert replays       %d events, %d instructions re-inserted\n",
			st.ReinsertEvents, st.ReinsertedInsts)
	}
	if st.RefetchEvents > 0 {
		fmt.Printf("  refetch replays         %d\n", st.RefetchEvents)
	}
	if spec.Scheme == core.SerialVerify && st.Policy.SerialDepth.N() > 0 {
		sd := &st.Policy.SerialDepth
		fmt.Printf("  wavefront depth         mean %.1f, p99 %d, max %d over %d misses\n",
			sd.Mean(), sd.Quantile(0.99), sd.Max(), sd.N())
	}
	fmt.Printf("  predictor               conf>=2 coverage %.2f, predicted %.2f of loads\n",
		out.Meter.Coverage(smpred.Confidence(2)), out.Meter.PredictedFraction(smpred.Confidence(2)))
}
