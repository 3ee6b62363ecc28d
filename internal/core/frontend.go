package core

import (
	"repro/internal/isa"
)

// fetchQCap bounds the fetch buffer: a few front-end pipelines' worth.
// (The backing ring is larger so a refetch replay can push the whole
// window back through the front end; this cap only throttles fetch.)
func (m *Machine) fetchQCap() int { return m.cfg.Width * (m.cfg.FrontEndDepth + 2) }

// fetch models the in-order front end: up to Width instructions per
// cycle from the trace, stopping at the first taken branch; IL1 misses
// stall fetch; a mispredicted branch blocks fetch until it resolves
// (the trace is the correct path, so wrong-path instructions are
// modeled as a fetch bubble — the standard trace-driven treatment; the
// resulting minimum misprediction penalty matches Table 3's ">= 11
// cycles").
func (m *Machine) fetch() {
	if m.blockedOnSeq >= 0 || m.cycle < m.fetchStall {
		return
	}
	for n := 0; n < m.cfg.Width; n++ {
		if m.fqLen >= m.fetchQCap() {
			return
		}
		if !m.haveNext {
			m.nextInst = m.src.Next()
			m.haveNext = true
		}
		in := m.nextInst

		// Instruction cache: access once per new line.
		line := in.PC >> 6
		if !m.haveLastLine || line != m.lastLine {
			m.haveLastLine = true
			m.lastLine = line
			res := m.hier.Inst(in.PC, m.cycle)
			if res.Latency > m.cfg.Hierarchy.IL1.Latency {
				// Miss: deliver nothing more this cycle and stall for
				// the extra fill latency.
				m.fetchStall = m.cycle + int64(res.Latency-m.cfg.Hierarchy.IL1.Latency)
				return
			}
		}

		m.haveNext = false
		mispred := false
		if in.Class == isa.Branch {
			m.stats.BranchLookups++
			pr := m.bp.Lookup(in.PC)
			if m.bp.Update(in.PC, pr, in.Taken, in.Target) {
				mispred = true
				m.stats.BranchMispredicts++
			}
		}
		m.fqPush(fetchEntry{
			inst:    in,
			readyAt: m.cycle + int64(m.cfg.FrontEndDepth),
		})
		m.emitFetch(in)
		if mispred {
			// Block fetch until the branch resolves at execute.
			m.blockedOnSeq = in.Seq
			return
		}
		if in.Class == isa.Branch && in.Taken {
			// Fetch stops at the first taken branch in a cycle.
			return
		}
	}
}

// dispatch moves instructions from the front end into the window:
// rename (producer linking, token-vector propagation), ROB/IQ/LSQ
// allocation, scheduling-miss prediction and token allocation for
// loads. Stalls while a re-insert replay is draining.
func (m *Machine) dispatch() {
	if m.reinsertActive {
		return
	}
	for n := 0; n < m.cfg.Width; n++ {
		if m.fqLen == 0 || m.fqAt(0).readyAt > m.cycle {
			return
		}
		if m.robCount >= m.cfg.ROBSize || m.iqCount >= m.cfg.IQSize {
			return
		}
		in := m.fqAt(0).inst
		if in.Class.IsMem() && m.lsqLen >= m.cfg.LSQSize {
			return
		}
		m.fqPopFront()
		m.insert(in)
	}
}

// insert renames and installs one instruction into the window, reusing
// a pooled uop.
func (m *Machine) insert(in isa.Inst) {
	u := m.allocUop()
	u.inst = in
	u.tokenID = -1
	u.broadcastCycle = unknown
	u.completeCycle = unknown
	u.dataReadyAt = unknown
	u.storeDataSeq = -1
	u.schedLat = m.schedLatOf(in)

	// Install the window-slot state: the slot is fixed for the uop's
	// whole residency (slot = seq mod ROBSize — the ROB ring never
	// compacts), so the scheduler's structure-of-arrays planes key off
	// it from here on.
	w := &m.win
	slot := int32((m.robHead + m.robCount) % w.size)
	u.slot = slot
	w.clearSlot(slot)
	w.set(w.inIQ, slot)
	w.class[slot] = in.Class
	switch in.Class {
	case isa.Load:
		w.set(w.loads, slot)
	case isa.Store:
		w.set(w.pendStore, slot)
	}
	// needMask: which operand lanes gate select. Stores wait on the
	// address operand only; the data operand is tracked for forwarding.
	if in.Class == isa.Store {
		if in.Src1 >= 0 {
			w.needMask[slot] = 1
		}
	} else {
		if in.Src1 >= 0 {
			w.needMask[slot] |= 1
		}
		if in.Src2 >= 0 {
			w.needMask[slot] |= 2
		}
	}

	// Rename: wire source operands to in-window producers.
	for i := 0; i < 2; i++ {
		seq := u.srcSeq(i)
		if seq < 0 {
			continue
		}
		p := m.lookup(seq)
		if p == nil || !p.inst.Class.HasDest() {
			// Producer retired (value architecturally available) — or,
			// defensively, the stream violated the contract and named a
			// producer with no register result, which would otherwise
			// never wake this operand.
			w.setOp(i, slot, 0)
			continue
		}
		w.tag[i][slot] = seq
		w.set(w.opTagged[i], slot)
		w.linkConsumer(i, p.slot, slot)
		p.consumers = append(p.consumers, u.seq())
		if m.completedState(p) {
			w.setOp(i, slot, p.completeCycle)
		} else if p.valuePredicted && !p.valueWrong {
			// The producer load's value was predicted at rename: the
			// dependence is collapsed and the operand is available now,
			// pending the load's eventual verification.
			w.setOp(i, slot, m.cycle)
		} else if m.issuedState(p) && p.broadcastCycle != unknown && p.broadcastCycle <= m.cycle {
			// The speculative wakeup already flew past; the operand is
			// ready in the scheduler's eyes.
			w.setOp(i, slot, p.broadcastCycle)
		} else if m.pol.wakeupEligible(p) {
			// The scheme's dependence tracking considers the operand
			// (speculatively) available already — serial verification,
			// whose register-file scoreboard shows a possibly invalid
			// value was written (§2.1, Figure 2a).
			w.setOp(i, slot, m.cycle)
		}
	}
	// Operand-free instructions never get a setOp call; compute their
	// always-ready summary bit explicitly.
	w.refreshReady(slot)
	if in.Class == isa.Store {
		u.storeDataSeq = in.Src2
	}

	// Loads: predict scheduling misses and propose value prediction;
	// the policy's rename hook does the scheme-specific work (token
	// vectors and allocation, conservative classification) and decides
	// whether the proposed prediction is actually consumed.
	wantValue := false
	if in.Class == isa.Load {
		u.conf = m.sp.Lookup(in.PC)
		wantValue = m.cfg.ValuePrediction && m.vp.Predict(in.PC)
	}
	if m.pol.onRename(m, u, wantValue) {
		u.valuePredicted = true
		m.stats.ValuePredictions++
	}

	// Window allocation.
	m.rob[(m.robHead+m.robCount)%len(m.rob)] = u
	m.robCount++
	m.iqCount++
	if in.Class.IsMem() {
		m.lsqPush(u)
	}
	m.emit(u, EvDispatch)
}

// schedLatOf returns the latency the scheduler assumes for a class:
// fixed execution latencies, with loads assumed to hit the DL1.
func (m *Machine) schedLatOf(in isa.Inst) int {
	if in.Class == isa.Load {
		return in.Class.ExecLatency() + m.cfg.Hierarchy.DL1.Latency
	}
	return in.Class.ExecLatency()
}
