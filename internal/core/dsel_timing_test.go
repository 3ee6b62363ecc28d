package core

import (
	"testing"

	"repro/internal/isa"
)

// The defining DSel penalty (§3.4.2, the BR-after-AND example): when a
// kill arrives, a ready-but-unissued instruction whose operand was
// woken inside the shadow loses the operand even though it is
// independent of the miss, and re-validates only at its parent's
// completion (the completion bus), several cycles after the original
// wakeup. Tested at mechanism level by driving shadowKill directly.
func TestDSelShadowInvalidation(t *testing.T) {
	cfg := Config4Wide()
	cfg.Scheme = DSel
	cfg.MaxInsts = 100
	m, err := New(cfg, &synthStream{next: func(seq int64) isa.Inst {
		return isa.Inst{PC: 0x400000, Class: isa.IntALU, Src1: -1, Src2: -1}
	}})
	if err != nil {
		t.Fatal(err)
	}
	m.cycle = 100

	// Hand-build the scenario: a missing load, an in-flight independent
	// parent P (issued, past execute, completing at 108), and a waiting
	// consumer C whose operand from P was woken two cycles ago.
	load := &uop{inst: isa.Inst{Seq: 0, Class: isa.Load, Addr: 0x40, Src1: -1, Src2: -1},
		missed:     true,
		issueCycle: 91, execStart: 96, dataReadyAt: 207,
		completeCycle: unknown, broadcastCycle: 94, tokenID: -1, storeDataSeq: -1}
	parent := &uop{inst: isa.Inst{Seq: 1, Class: isa.IntALU, Src1: -1, Src2: -1},
		issueCycle: 97, execStart: 102, broadcastCycle: 98, completeCycle: 103,
		dataReadyAt: 103, tokenID: -1, storeDataSeq: -1}
	consumer := &uop{inst: isa.Inst{Seq: 2, Class: isa.IntALU, Src1: 1, Src2: -1},
		tokenID: -1, storeDataSeq: -1,
		broadcastCycle: unknown, completeCycle: unknown, dataReadyAt: unknown}
	parent.consumers = []int64{2}
	m.rob[0], m.rob[1], m.rob[2] = load, parent, consumer
	m.robCount, m.headSeq = 3, 0
	// Install the window-slot state insert() would have built.
	for i, u := range [...]*uop{load, parent, consumer} {
		u.slot = int32(i)
		m.win.clearSlot(u.slot)
		m.win.set(m.win.inIQ, u.slot)
		m.win.class[u.slot] = u.inst.Class
		m.win.refreshReady(u.slot)
	}
	m.win.set(m.win.loads, load.slot)
	m.win.set(m.win.issued, load.slot)
	m.win.set(m.win.issued, parent.slot)
	m.win.needMask[consumer.slot] = 1
	m.win.tag[0][consumer.slot] = 1
	m.win.set(m.win.opTagged[0], consumer.slot)
	m.win.setOp(0, consumer.slot, 98)

	// The parent's in-flight completion, as issue() would have scheduled.
	m.schedule(parent.completeCycle, event{kind: evComplete, u: parent})

	m.shadowKill(load, false)

	if m.opReady(consumer, 0) {
		t.Fatal("shadow-woken operand survived the kill")
	}
	if m.issuedState(consumer) {
		t.Fatal("DSel must not flush unissued instructions into issued state")
	}
	// The re-arm must fire at the parent's completion + 1, not before.
	reawoken := int64(-1)
	for c := int64(101); c < 120 && reawoken < 0; c++ {
		m.cycle = c
		m.runEvents()
		if m.opReady(consumer, 0) {
			reawoken = c
		}
		slot := c & m.wheelMask
		m.wheel[slot] = m.wheel[slot][:0]
	}
	if reawoken != parent.completeCycle+1 {
		t.Fatalf("operand re-validated at %d, want parent completion+1 = %d",
			reawoken, parent.completeCycle+1)
	}
	// Net effect: the consumer lost (completion+1) - wakeup = 6 cycles
	// of schedule-to-execute overlap — the §3.4.2 bubble. (98 is the
	// original wakeup cycle; wokenAt was refreshed by the re-wake.)
	if bubble := reawoken - 98; bubble < 3 {
		t.Fatalf("bubble %d cycles; expected the schedule-to-execute overlap loss", bubble)
	}
}

// Token reclaim (Table 2 state "11"): with a single-token pool and
// competing predicted-miss loads, steals must occur, the stolen heads
// must lose selective coverage, and the machine must stay correct.
func TestTkSelTokenReclaim(t *testing.T) {
	// Two alternating always-missing load sites: they both train to high
	// confidence, but only one token exists.
	pat := func(seq int64) isa.Inst {
		switch seq % 8 {
		case 0:
			return isa.Inst{PC: 0x400000, Class: isa.Load, Src1: -1, Src2: -1,
				Addr: 0x4000_0000 + uint64(seq)*64}
		case 4:
			return isa.Inst{PC: 0x400040, Class: isa.Load, Src1: -1, Src2: -1,
				Addr: 0x5000_0000 + uint64(seq)*64}
		default:
			return isa.Inst{PC: 0x400010 + uint64(seq%8)*4, Class: isa.IntALU, Src1: -1, Src2: -1}
		}
	}
	cfg := Config4Wide()
	cfg.Scheme = TkSel
	cfg.Tokens = 1
	cfg.MaxInsts = 4000
	m, err := New(cfg, &synthStream{next: pat})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Retired < 4000 {
		t.Fatalf("retired %d", st.Retired)
	}
	if st.Policy.MissTokenStolen == 0 && st.Policy.MissTokenRefused == 0 {
		t.Error("single-token pool under dual miss streams should lose coverage somewhere")
	}
	if st.TokenCoverage() > 0.9 {
		t.Errorf("coverage %.2f with one token and two concurrent miss streams is implausible",
			st.TokenCoverage())
	}
}
