package core

import (
	"testing"

	"repro/internal/isa"
)

func TestObserverLifecycle(t *testing.T) {
	pat := missingLoadPattern(16, 2)
	cfg := Config4Wide()
	cfg.MaxInsts = 400
	m, err := New(cfg, &synthStream{next: pat})
	if err != nil {
		t.Fatal(err)
	}
	events := map[int64][]PipeEvent{}
	m.SetSink(SinkFunc(func(ev PipeEvent) {
		events[ev.Seq] = append(events[ev.Seq], ev)
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}

	sawReplay := false
	for seq := int64(0); seq < 400; seq++ {
		evs := events[seq]
		if len(evs) == 0 {
			t.Fatalf("no events for seq %d", seq)
		}
		// Lifecycle sanity: starts with fetch then dispatch, ends with
		// retire, cycles non-decreasing.
		if evs[0].Kind != EvFetch {
			t.Fatalf("seq %d: first event %v", seq, evs[0].Kind)
		}
		if last := evs[len(evs)-1]; last.Kind != EvRetire {
			t.Fatalf("seq %d: last event %v", seq, last.Kind)
		}
		counts := map[PipeEventKind]int{}
		for i, ev := range evs {
			if i > 0 && ev.Cycle < evs[i-1].Cycle {
				t.Fatalf("seq %d: time went backward", seq)
			}
			counts[ev.Kind]++
			if ev.Kind == EvReplay {
				sawReplay = true
			}
		}
		if counts[EvFetch] != 1 || counts[EvDispatch] != 1 ||
			counts[EvRetire] != 1 || counts[EvComplete] != 1 {
			t.Fatalf("seq %d: fetch/dispatch/complete/retire counts %v", seq, counts)
		}
		// Every replay root and squashed dependent re-issues:
		// issues = replays + squashes + 1.
		if counts[EvIssue] != counts[EvReplay]+counts[EvSquash]+1 {
			t.Fatalf("seq %d: %d issues for %d replays + %d squashes",
				seq, counts[EvIssue], counts[EvReplay], counts[EvSquash])
		}
	}
	if !sawReplay {
		t.Fatal("missing-load pattern produced no replay events")
	}
}

func TestObserverKindStrings(t *testing.T) {
	want := map[PipeEventKind]string{
		EvDispatch: "D", EvIssue: "I", EvExecute: "X",
		EvComplete: "C", EvSquash: "!", EvRetire: "R",
		EvFetch: "F", EvReplay: "r",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if numPipeEventKinds != 8 {
		t.Fatalf("numPipeEventKinds = %d; the .evs codec packs the kind in 3 bits", numPipeEventKinds)
	}
}

func TestObserverDisabledByDefault(t *testing.T) {
	// No observer set: the machine must run identically (smoke).
	cfg := Config4Wide()
	cfg.MaxInsts = 200
	m, _ := New(cfg, &synthStream{next: func(seq int64) isa.Inst {
		return isa.Inst{PC: 0x400000, Class: isa.IntALU, Src1: -1, Src2: -1}
	}})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
