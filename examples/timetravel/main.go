// Timetravel: walk a committed pipeline-event recording (.evs) without
// running the simulator at all — the stream *is* the run.
//
// The artifact next to this file was recorded once with
//
//	go run ./cmd/pipeview -bench mcf -scheme NonSel -skip 800 -rows 32 \
//	    -record examples/timetravel/mcf-nonsel.evs
//
// and replays bit-identically forever after: mcf on the paper's 4-wide
// machine under non-selective (squashing) replay, every fetch,
// dispatch, issue, execute, complete, squash, replay and retire event,
// cycle-stamped, at ~2.6 bytes each. This program decodes it, finds
// the busiest squash burst, and re-renders a window around it — the
// same time travel `pipeview -replay -seek` does interactively.
package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"io"
	"log"

	"repro/internal/core"
	"repro/internal/evstream"
)

//go:embed mcf-nonsel.evs
var recording []byte

func main() {
	// Pass 1: stream statistics and the squash-heaviest cycle. A linear
	// decode of the whole file — this is the expensive path, and it is
	// ~30 KB.
	d, err := evstream.NewReader(bytes.NewReader(recording))
	if err != nil {
		log.Fatal(err)
	}
	hdr := d.Header()

	var (
		total              int64
		firstCycle         int64 = -1
		lastCycle, burstAt int64
		burst, burstBest   int64
		burstCycle         int64 = -1
		perKind            [8]int64
	)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		if firstCycle < 0 {
			firstCycle = ev.Cycle
		}
		lastCycle = ev.Cycle
		total++
		perKind[ev.Kind]++
		if ev.Kind == core.EvSquash {
			if ev.Cycle != burstAt {
				burstAt, burst = ev.Cycle, 0
			}
			burst++
			if burst > burstBest {
				burstBest, burstCycle = burst, ev.Cycle
			}
		}
	}

	fmt.Printf("%s (seed %d): %d events over cycles %d..%d, %.2f B/event\n",
		hdr.Spec, hdr.Seed, total, firstCycle, lastCycle,
		float64(len(recording))/float64(total))
	for k := core.PipeEventKind(0); k < 8; k++ {
		if perKind[k] > 0 {
			fmt.Printf("  %-8v %6d\n", k, perKind[k])
		}
	}
	fmt.Printf("busiest squash burst: %d squashes in cycle %d\n\n", burstBest, burstCycle)

	// Pass 2: time-travel straight to that burst. SeekCycle decodes
	// forward to the first event at or past the target; a fresh reader
	// is all the state a seek needs.
	d2, err := evstream.NewReader(bytes.NewReader(recording))
	if err != nil {
		log.Fatal(err)
	}
	ev, err := d2.SeekCycle(burstCycle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events from cycle %d (the replay scheme squashing the load's shadow):\n", burstCycle)
	for n := 0; n < 16; n++ {
		fmt.Printf("  cycle %6d  %-8v seq %5d\n", ev.Cycle, ev.Kind, ev.Seq)
		if ev, err = d2.Next(); err != nil {
			break
		}
	}
	fmt.Printf("\nthe same window, rendered as a timeline:\n")
	fmt.Printf("  go run ./cmd/pipeview -replay examples/timetravel/mcf-nonsel.evs -seek %d\n", burstCycle)
}
