// Command pipeview renders an ASCII pipeline timeline — the textual
// analogue of the paper's Figures 5–7 timing diagrams. Each row is one
// dynamic instruction, each column a cycle:
//
//	F fetch   D dispatch   I issue   X execute   C complete
//	! squash  r replay     R retire
//
// A load scheduling miss is visible as an I…X…! sequence followed by a
// second I once the data returns, with the configured replay scheme
// deciding which neighbours get dragged along.
//
// The command runs in three modes:
//
//	pipeview -bench mcf -scheme NonSel -skip 3000 -rows 48
//	    simulate and render a window picked by instruction number
//	pipeview -bench mcf -scheme NonSel -record run.evs
//	    the same, but also record the full event stream to run.evs
//	pipeview -replay run.evs -seek 41000
//	    no simulation: re-render any cycle range of a recorded run
//
// Replay streams from the file with a bounded window — memory is
// O(rows), independent of stream length — so seeking deep into a long
// recording is instant and cheap.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/evstream"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simflag"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	f := simflag.New()
	f.Bench = "mcf"
	f.RegisterBench(flag.CommandLine)
	f.RegisterMachine(flag.CommandLine)
	f.RegisterSeed(flag.CommandLine)
	skip := flag.Int64("skip", 5_000, "instructions to run before the window (warms caches)")
	rows := flag.Int64("rows", 40, "instructions to display")
	cols := flag.Int64("cols", 110, "cycles to display")
	record := flag.String("record", "", "record the full event stream to this .evs file")
	replay := flag.String("replay", "", "render from this .evs file instead of simulating")
	seek := flag.Int64("seek", -1, "with -replay: start the window at this cycle")
	flag.Parse()

	if f.HandleListSchemes(os.Stdout) {
		return nil
	}
	if *rows <= 0 || *cols <= 0 {
		return fmt.Errorf("pipeview: -rows and -cols must be positive")
	}

	if *replay != "" {
		return replayRender(*replay, *seek, *rows, *cols)
	}
	if *seek >= 0 {
		return fmt.Errorf("pipeview: -seek requires -replay (record a stream first, then time-travel in it)")
	}
	return liveRender(f, *skip, *rows, *cols, *record)
}

// row is one instruction's timeline.
type row struct {
	class    isa.Class
	hasClass bool
	events   []core.PipeEvent
}

// liveRender simulates a run, renders the [skip, skip+rows) window,
// and optionally records the whole event stream to an .evs file.
func liveRender(f *simflag.Sim, skip, rows, cols int64, recordPath string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	spec := f.Spec()

	// The sink below hooks machine internals, so this command drives
	// core directly rather than going through the sim engine.
	prof, err := workload.ByName(f.Bench)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(prof, f.Seed)
	if err != nil {
		return err
	}
	cfg := spec.Config(sim.Options{Insts: skip + rows + 512})

	m, err := core.New(cfg, gen)
	if err != nil {
		return err
	}

	lo, hi := skip, skip+rows
	rowsBySeq := map[int64]*row{}
	var t0 int64 = -1
	collect := func(ev core.PipeEvent) {
		if ev.Seq < lo || ev.Seq >= hi {
			return
		}
		if t0 < 0 {
			t0 = ev.Cycle
		}
		r, ok := rowsBySeq[ev.Seq]
		if !ok {
			r = &row{}
			rowsBySeq[ev.Seq] = r
		}
		if ev.Kind == core.EvFetch || ev.Kind == core.EvDispatch {
			r.class, r.hasClass = ev.Class, true
		}
		r.events = append(r.events, ev)
	}

	var rec *evstream.Recorder
	if recordPath != "" {
		out, err := os.Create(recordPath)
		if err != nil {
			return err
		}
		defer out.Close()
		rec, err = evstream.NewRecorder(out, evstream.Header{
			Spec: fmt.Sprintf("%s %s %v", f.Bench, cfg.Name, spec.Scheme),
			Seed: f.Seed,
			Note: "pipeview recording",
		})
		if err != nil {
			return err
		}
		m.SetSink(core.SinkFunc(func(ev core.PipeEvent) {
			rec.Event(ev)
			collect(ev)
		}))
	} else {
		m.SetSink(core.SinkFunc(collect))
	}

	if _, err := m.Run(); err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Flush(); err != nil {
			return err
		}
		fmt.Printf("recorded %d events to %s\n", rec.Count(), recordPath)
	}

	fmt.Printf("%s on %s under %v — instructions %d..%d (cycle origin %d)\n",
		f.Bench, cfg.Name, spec.Scheme, lo, hi-1, t0)
	render(rowsBySeq, t0, cols)
	return nil
}

// replayRender renders a window of a recorded stream without
// simulating: seek to the requested cycle (or the stream's first
// event), then collect at most `rows` instructions across `cols`
// cycles. The scan stops at the window's right edge, so deep streams
// never load whole.
func replayRender(path string, seek, rows, cols int64) error {
	in, err := os.Open(path)
	if err != nil {
		return err
	}
	defer in.Close()
	d, err := evstream.NewReader(in)
	if err != nil {
		return err
	}

	var first core.PipeEvent
	if seek >= 0 {
		ev, err := d.SeekCycle(seek)
		if errors.Is(err, evstream.ErrPastEnd) {
			return fmt.Errorf("pipeview: %s: %w", path, err)
		}
		if err != nil {
			return err
		}
		first = ev
	} else {
		ev, err := d.Next()
		if err == io.EOF {
			return fmt.Errorf("pipeview: %s holds no events", path)
		}
		if err != nil {
			return err
		}
		first = ev
	}
	t0 := first.Cycle
	if seek >= 0 {
		t0 = seek // anchor the columns at the asked-for cycle
	}

	rowsBySeq := map[int64]*row{}
	add := func(ev core.PipeEvent) {
		r, ok := rowsBySeq[ev.Seq]
		if !ok {
			if int64(len(rowsBySeq)) >= rows {
				return // window full: later instructions wait for the next seek
			}
			r = &row{}
			rowsBySeq[ev.Seq] = r
		}
		if ev.Kind == core.EvFetch || ev.Kind == core.EvDispatch {
			r.class, r.hasClass = ev.Class, true
		}
		r.events = append(r.events, ev)
	}
	add(first)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if ev.Cycle >= t0+cols {
			break // right edge reached; cycles are monotonic, stop reading
		}
		add(ev)
	}

	hdr := d.Header()
	label := hdr.Spec
	if label == "" {
		label = path
	}
	fmt.Printf("%s (seed %d) — replayed from %s, cycles %d..%d\n",
		label, hdr.Seed, path, t0, t0+cols-1)
	render(rowsBySeq, t0, cols)
	return nil
}

// render prints the timeline rows in instruction order.
func render(rowsBySeq map[int64]*row, t0, cols int64) {
	fmt.Println("F fetch  D dispatch  I issue  X execute  C complete  ! squash  r replay  R retire")
	seqs := make([]int64, 0, len(rowsBySeq))
	for seq := range rowsBySeq {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		r := rowsBySeq[seq]
		line := []byte(strings.Repeat(".", int(cols)))
		clipped := false
		for _, ev := range r.events {
			c := ev.Cycle - t0
			if c < 0 || c >= cols {
				clipped = true
				continue
			}
			line[c] = ev.Kind.String()[0]
		}
		mark := " "
		if clipped {
			mark = ">"
		}
		class := "-"
		if r.hasClass {
			class = r.class.String()
		}
		fmt.Printf("%6d %-7s |%s|%s\n", seq, class, line, mark)
	}
}
