package analytic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// The Table 1 graph model is a worst case: MaxParentLoads(p, d) bounds
// how many in-flight load parents any instruction can have to track
// with p memory ports and propagation distance d. Cross-validate it
// against a checked simulator run: walk every issue's dependence
// ancestry, count the distinct loads still inside the propagation
// window, and the empirical maximum must stay within the model's bound
// while being large enough to prove the measurement is not vacuous.
func TestMaxParentLoadsBoundsSimulator(t *testing.T) {
	const insts = 20_000
	prof, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config4Wide()
	cfg.Scheme = core.PosSel
	cfg.Check = core.CheckFull
	cfg.MaxInsts = insts
	cfg.Warmup = 0
	m, err := core.New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}

	// Mirror the deterministic stream so the observer's per-seq events
	// can be joined with the dependence edges the events do not carry.
	mirrorGen, err := workload.NewGenerator(prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorGen.Generate(insts + 8_192)

	dist := int64(cfg.PropagationDistance())
	const window = 8192 // power of two well beyond the ROB
	lastIssue := make([]int64, window)
	issuedSeq := make([]int64, window)
	for i := range lastIssue {
		issuedSeq[i] = -1
	}

	// countParentLoads walks the ancestry of seq, following only
	// producers whose latest issue is still inside the propagation
	// window at the consumer's issue cycle, and counts distinct loads.
	var stack, seen []int64
	countParentLoads := func(seq, cycle int64) int {
		stack = stack[:0]
		seen = seen[:0]
		push := func(p int64) {
			if p < 0 || seq-p >= window {
				return
			}
			for _, s := range seen {
				if s == p {
					return
				}
			}
			seen = append(seen, p)
			stack = append(stack, p)
		}
		push(mirror[seq].Src1)
		push(mirror[seq].Src2)
		loads := 0
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			slot := p & (window - 1)
			if issuedSeq[slot] != p || cycle-lastIssue[slot] > dist {
				continue // never issued, overwritten, or already propagated out
			}
			if mirror[p].Class == isa.Load {
				loads++
			}
			push(mirror[p].Src1)
			push(mirror[p].Src2)
		}
		return loads
	}

	empMax := 0
	m.SetSink(core.SinkFunc(func(ev core.PipeEvent) {
		if ev.Kind != core.EvIssue || int(ev.Seq) >= len(mirror) {
			return
		}
		if n := countParentLoads(ev.Seq, ev.Cycle); n > empMax {
			empMax = n
		}
		slot := ev.Seq & (window - 1)
		lastIssue[slot] = ev.Cycle
		issuedSeq[slot] = ev.Seq
	}))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}

	bound := MaxParentLoads(cfg.MemPorts, int(dist))
	if empMax > bound {
		t.Fatalf("simulator produced %d in-window parent loads; model bound MaxParentLoads(%d,%d) = %d",
			empMax, cfg.MemPorts, dist, bound)
	}
	if empMax < 2 {
		t.Fatalf("empirical maximum %d parent loads; measurement looks vacuous (bound %d)", empMax, bound)
	}
	t.Logf("empirical max parent loads %d, model bound %d", empMax, bound)
}
