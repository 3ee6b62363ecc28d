// Command trace records, inspects and simulates instruction traces.
//
// Usage:
//
//	trace record -bench gcc -n 200000 -o gcc.trace
//	trace stats gcc.trace
//	trace stats run.evs     # pipeline event streams are recognized too
//	trace run -scheme TkSel -wide8 gcc.trace
//
// `stats` inspects both artifact formats: instruction traces
// (internal/trace) and recorded pipeline event streams
// (internal/evstream, as written by pipeview -record or
// validate -streams).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/evstream"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simflag"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "stats":
		traceStats(os.Args[2:])
	case "run":
		run(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: trace record|stats|run ...")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	sf := simflag.New()
	sf.RegisterBench(fs)
	sf.RegisterSeed(fs)
	n := fs.Int("n", 200_000, "instructions to record")
	out := fs.String("o", "", "output file (required)")
	fs.Parse(args)
	if *out == "" {
		fatal(fmt.Errorf("record: -o is required"))
	}
	if err := sf.Validate(); err != nil {
		fatal(err)
	}
	prof, err := workload.ByName(sf.Bench)
	if err != nil {
		fatal(err)
	}
	gen, err := workload.NewGenerator(prof, sf.Seed)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < *n; i++ {
		if err := w.Write(gen.Next()); err != nil {
			fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	info, _ := f.Stat()
	fmt.Printf("recorded %d instructions of %s to %s (%d bytes, %.1f B/inst)\n",
		*n, sf.Bench, *out, info.Size(), float64(info.Size())/float64(*n))
}

func traceStats(args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("stats: need exactly one trace file"))
	}
	if evsStats(args[0]) {
		return
	}
	insts := load(args[0])

	classCounts := map[isa.Class]int{}
	pcs := map[uint64]bool{}
	depDistSum, depCount := int64(0), 0
	taken, branches := 0, 0
	lines := map[uint64]bool{}
	for _, in := range insts {
		classCounts[in.Class]++
		pcs[in.PC] = true
		for _, s := range []int64{in.Src1, in.Src2} {
			if s >= 0 {
				depDistSum += in.Seq - s
				depCount++
			}
		}
		if in.Class == isa.Branch {
			branches++
			if in.Taken {
				taken++
			}
		}
		if in.Class.IsMem() {
			lines[in.Addr>>6] = true
		}
	}
	fmt.Printf("%s: %d instructions, %d static sites, %d distinct data lines (%.0f KB touched)\n",
		args[0], len(insts), len(pcs), len(lines), float64(len(lines))*64/1024)
	tb := stats.NewTable("class", "count", "fraction")
	for c := isa.Class(0); c < isa.NumClasses; c++ {
		if classCounts[c] > 0 {
			tb.AddRow(c.String(), fmt.Sprintf("%d", classCounts[c]),
				fmt.Sprintf("%.3f", float64(classCounts[c])/float64(len(insts))))
		}
	}
	fmt.Print(tb.String())
	if depCount > 0 {
		fmt.Printf("mean dependence distance: %.2f instructions\n", float64(depDistSum)/float64(depCount))
	}
	if branches > 0 {
		fmt.Printf("branches taken: %.1f%%\n", 100*float64(taken)/float64(branches))
	}
}

// evsStats prints statistics for a recorded pipeline event stream and
// reports whether the file was one; any other format returns false so
// the caller falls through to the instruction-trace path.
func evsStats(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	d, err := evstream.NewReader(f)
	if err != nil {
		return false // not an .evs stream
	}

	var (
		events     int64
		firstCycle int64 = -1
		lastCycle  int64
		perKind    [8]int64
	)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(fmt.Errorf("stats: %s: %w", path, err))
		}
		if firstCycle < 0 {
			firstCycle = ev.Cycle
		}
		lastCycle = ev.Cycle
		events++
		perKind[ev.Kind]++
	}

	hdr := d.Header()
	info, _ := f.Stat()
	fmt.Printf("%s: event stream of %q (seed %d)\n", path, hdr.Spec, hdr.Seed)
	if hdr.Note != "" {
		fmt.Printf("note: %s\n", hdr.Note)
	}
	if events > 0 {
		fmt.Printf("%d events over cycles %d..%d (%d bytes, %.2f B/event)\n",
			events, firstCycle, lastCycle, info.Size(),
			float64(info.Size())/float64(events))
	}
	tb := stats.NewTable("event", "count", "fraction")
	for k := core.PipeEventKind(0); k < core.PipeEventKind(len(perKind)); k++ {
		if perKind[k] > 0 {
			tb.AddRow(k.String(), fmt.Sprintf("%d", perKind[k]),
				fmt.Sprintf("%.3f", float64(perKind[k])/float64(events)))
		}
	}
	fmt.Print(tb.String())
	return true
}

func run(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	f := simflag.New()
	f.RegisterMachine(fs)
	f.RegisterCheck(fs)
	// Run length comes from the recorded trace, not the canonical
	// defaults, so these stay local instead of using RegisterLength.
	insts := fs.Int64("insts", 0, "instructions to simulate (0 = one pass of the trace)")
	warmup := fs.Int64("warmup", 0, "warmup instructions")
	fs.Parse(args)
	if f.HandleListSchemes(os.Stdout) {
		return
	}
	if err := f.Validate(); err != nil {
		fatal(err)
	}
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("run: need exactly one trace file"))
	}
	recorded := load(fs.Arg(0))

	spec := f.Spec()
	spec.Over.Check, _ = f.Check() // Validate has already vetted it
	n := int64(len(recorded))
	if *insts > 0 {
		n = *insts
	}
	cfg := spec.Config(sim.Options{Insts: n, Warmup: *warmup})
	m, err := core.New(cfg, trace.NewLoop(recorded))
	if err != nil {
		fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s under %v (%s): IPC %.4f, miss rate %.2f%%, replays %.2f%%\n",
		fs.Arg(0), spec.Scheme, cfg.Name, st.IPC(), 100*st.LoadMissRate(), 100*st.ReplayRate())
}

func load(path string) []isa.Inst {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	insts, err := r.ReadAll()
	if err != nil {
		fatal(err)
	}
	if len(insts) == 0 {
		fatal(fmt.Errorf("%s: empty trace", path))
	}
	return insts
}
