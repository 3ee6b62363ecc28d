package core

import (
	"repro/internal/cache"
	"repro/internal/isa"
)

// handleExec models the instruction reaching the execute stage:
// loads access the memory hierarchy and check store-to-load aliasing,
// resolving their actual latency; scheduling misses are detected at the
// (scheduled) completion stage and signal the kill one verify-latency
// later.
func (m *Machine) handleExec(ev event) {
	u := ev.u
	if u.gen != ev.gen || u.retired {
		return
	}

	m.emit(u, EvExecute)

	switch u.inst.Class {
	case isa.Load:
		m.execLoad(u)
	case isa.Store:
		// The store address enters the LSQ; data may still be pending
		// (split store-address/store-data). Warm the cache
		// (write-allocate) and complete.
		m.hier.Data(u.inst.Addr, m.cycle)
		u.actualLat = u.schedLat
		u.completeCycle = u.execStart + int64(u.actualLat)
		u.dataReadyAt = u.completeCycle
		m.schedule(u.completeCycle, event{kind: evComplete, u: u, gen: u.gen})
	default:
		u.actualLat = u.schedLat
		u.completeCycle = u.execStart + int64(u.actualLat)
		u.dataReadyAt = u.completeCycle
		m.schedule(u.completeCycle, event{kind: evComplete, u: u, gen: u.gen})
	}
}

// execLoad resolves a load's actual latency from forwarding or the
// cache hierarchy.
func (m *Machine) execLoad(u *uop) {
	var dataAt int64
	kind := missNone

	if s := m.aliasingStore(u); s != nil {
		sd := m.storeDataReadyAt(s)
		switch {
		case sd <= m.cycle:
			// Forwarded in time: behaves like a hit.
			dataAt = m.cycle + int64(u.schedLat)
		case sd == unknown:
			// The store's data producer hasn't even resolved; retry
			// after the kill with a short back-off.
			dataAt = unknown
			kind = missAlias
		default:
			dataAt = sd + 1
			kind = missAlias
		}
	} else {
		res := m.hier.Data(u.inst.Addr, m.cycle)
		lat := u.inst.Class.ExecLatency() + res.Latency
		dataAt = m.cycle + int64(lat)
		if lat > u.schedLat {
			kind = missCache
			switch res.Level {
			case cache.LevelInFlight:
				m.stats.MissInFlight++
			case cache.LevelL2:
				m.stats.MissL2++
			case cache.LevelMemory:
				m.stats.MissMemory++
			}
		}
		// The prefetcher observes each dynamic load once (replays of the
		// same load would retrain zero deltas): settle the accounting for
		// this demand line, then train and possibly start a fill.
		if m.pf != nil && u.issues == 1 {
			if m.pf.DemandUse(m.hier.DL1().LineAddr(u.inst.Addr)) {
				m.stats.PrefetchUseful++
				if res.Level == cache.LevelInFlight {
					m.stats.PrefetchLate++
				}
			}
			if pa, ok := m.pf.Observe(u.inst.PC, u.inst.Addr); ok && m.hier.Prefetch(pa, m.cycle) {
				m.stats.PrefetchIssued++
				m.pf.MarkIssued(m.hier.DL1().LineAddr(pa))
			}
		}
	}

	u.dataReadyAt = dataAt

	// Train the scheduling-miss predictor and the Figure 9 meter on the
	// first execution of each dynamic load; conservative-delayed loads
	// are recorded against what would have happened to a speculative
	// schedule.
	if u.issues == 1 {
		missedNow := kind != missNone
		m.sp.Update(u.inst.PC, missedNow)
		m.meter.Record(u.conf, missedNow)
	}

	if u.conservative {
		// Pessimistically scheduled: dependents were never woken, so
		// there is no scheduling miss to recover — the load simply
		// broadcasts once the latency is known and completes when the
		// data arrives.
		if dataAt == unknown {
			// Unresolvable alias: retry execution shortly.
			m.unissue(u)
			m.setHoldUntil(u, m.cycle+4)
			return
		}
		bc := m.cycle + 1
		if t := dataAt - int64(m.cfg.SchedToExec); t > bc {
			bc = t
		}
		u.broadcastCycle = bc
		m.schedule(bc, event{kind: evBroadcast, u: u, gen: u.gen})
		u.actualLat = int(dataAt - u.execStart)
		u.completeCycle = dataAt
		m.schedule(u.completeCycle, event{kind: evComplete, u: u, gen: u.gen})
		return
	}

	if kind == missNone {
		u.actualLat = int(dataAt - u.execStart)
		u.completeCycle = dataAt
		// Completion never precedes the advertised wakeup broadcast: a
		// load scheduled past its actual latency (LoadDelay's inflated
		// predictions) must stay live until its dependents are woken,
		// or retirement would recycle the uop out from under the
		// pending broadcast event.
		if u.broadcastCycle != unknown && u.completeCycle < u.broadcastCycle {
			u.completeCycle = u.broadcastCycle
		}
		m.schedule(u.completeCycle, event{kind: evComplete, u: u, gen: u.gen})
		return
	}

	u.missed = true
	u.missKind = kind
	// Detected at the scheduled completion stage; the kill reaches the
	// scheduler VerifyLatency later (together: the propagation
	// distance).
	detect := u.execStart + int64(u.schedLat)
	m.schedule(detect+int64(m.cfg.VerifyLatency), event{kind: evKill, u: u, gen: u.gen})
}

// aliasingStore returns the youngest older in-window store writing the
// load's (word-granular) address, or nil.
func (m *Machine) aliasingStore(u *uop) *uop {
	var found *uop
	for i := 0; i < m.lsqLen; i++ {
		s := m.lsqAt(i)
		if s.seq() >= u.seq() {
			break
		}
		if s.inst.Class == isa.Store && s.inst.Addr>>3 == u.inst.Addr>>3 {
			found = s
		}
	}
	return found
}

// storeDataReadyAt returns when the store's data value is available for
// forwarding, or unknown.
func (m *Machine) storeDataReadyAt(s *uop) int64 {
	if s.storeDataSeq < 0 {
		return s.execStart
	}
	p := m.lookup(s.storeDataSeq)
	if p == nil {
		// Producer retired: data long available.
		return s.execStart
	}
	if p.dataReadyAt != unknown {
		at := p.dataReadyAt
		if at < s.execStart {
			at = s.execStart
		}
		return at
	}
	return unknown
}

// handleComplete models the completion stage for an instruction whose
// scheduled execution finished. The completion verifies the schedule:
// an instruction that consumed a value which was not actually valid
// (its producer mis-scheduled) must not complete — under DSel this is
// the poison bit arriving at completion; under the precise schemes the
// kill normally beat us here and this path is a safety net.
func (m *Machine) handleComplete(ev event) {
	u := ev.u
	if u.gen != ev.gen || u.retired || m.completedState(u) {
		return
	}

	// Ground-truth poison check. Stores are exempt on their data
	// operand: they issue on address readiness alone (split
	// store-address/store-data), and data lateness is handled by the
	// forwarding check at dependent loads.
	nsrc := 2
	if u.inst.Class == isa.Store {
		nsrc = 1
	}
	bad := false
	for i := 0; i < nsrc; i++ {
		if u.srcSeq(i) >= 0 && !m.dataValidFor(m.prod(u, i), u.execStart) {
			bad = true
		}
	}
	if bad {
		// Consumed a stale value: squash, clear the stale operands and
		// wait for the producers' re-broadcasts. Schemes that reach this
		// path by design (DSel's poison bit, SerialVerify's wavefront)
		// do not count it as a safety replay.
		if m.pol.countsSafetyReplay() {
			m.stats.SafetyReplays++
		}
		m.squash(u)
		for i := 0; i < nsrc; i++ {
			p := m.prod(u, i)
			if u.srcSeq(i) >= 0 && !m.dataValidFor(p, u.execStart) {
				m.clearOperand(u, i)
				m.rearmOperand(u, i)
				m.pol.onStaleOperand(m, u, i, p)
			}
		}
		return
	}

	// Value verification: only now, with the memory access done, is the
	// predicted value checked — the non-deterministic verification delay
	// of §3.5 (cache-miss latencies included).
	if u.valuePredicted && m.vp != nil {
		correct := u.inst.ValueRepeat
		m.vp.Update(u.inst.PC, correct, true)
		if !correct {
			u.valueWrong = true
			m.stats.ValueMispredicts++
			m.valueKill(u)
		}
	} else if u.isLoad() && m.vp != nil {
		// Train the last-value table on unpredicted loads too.
		m.vp.Update(u.inst.PC, u.inst.ValueRepeat, false)
	}

	m.win.set(m.win.completed, u.slot)
	m.win.clearBit(m.win.pendStore, u.slot)
	m.emit(u, EvComplete)
	if u.dataReadyAt == unknown || u.dataReadyAt < m.cycle {
		u.dataReadyAt = m.cycle
	}
	if m.inRQ(u) {
		// Verified: the replay-queue entry is reclaimed.
		m.win.clearBit(m.win.inRQ, u.slot)
		m.rqCount--
	}

	// Branch resolution unblocks a mispredict-stalled front end.
	if u.inst.Class == isa.Branch && u.seq() == m.blockedOnSeq {
		m.blockedOnSeq = -1
		m.fetchStall = m.cycle + 1
	}

	// Verified: the policy decides when the issue-queue entry is
	// released (TkSel broadcasts the token complete state first; the
	// default is an immediate release).
	m.pol.onVerify(m, u)
}

// rearmOperand ensures a cleared operand will be woken again: if the
// producer is in flight with known timing, schedule a targeted wake;
// if it is waiting or replaying, its re-issue broadcast covers it.
func (m *Machine) rearmOperand(c *uop, i int) {
	if m.opReady(c, i) {
		return
	}
	p := m.prod(c, i)
	if p == nil {
		// No in-window producer (never renamed one, or it retired):
		// the value is architecturally available.
		m.wakeOperand(c, i, m.cycle)
		return
	}
	switch {
	case m.completedState(p):
		m.schedule(m.cycle+1, event{kind: evOpWake, u: c, op: i})
	case m.issuedState(p) && p.completeCycle != unknown:
		m.schedule(p.completeCycle+1, event{kind: evOpWake, u: c, op: i})
	case m.issuedState(p):
		m.schedule(p.execStart+1, event{kind: evOpWake, u: c, op: i})
	}
	// Otherwise: p waits in the queue; its issue broadcast will wake us.
}

// retire commits up to Width completed instructions from the ROB head,
// recycling their uops through the pool.
func (m *Machine) retire() {
	for n := 0; n < m.cfg.Width && m.robCount > 0; n++ {
		u := m.rob[m.robHead]
		if !m.completedState(u) {
			return
		}
		u.retired = true
		m.emit(u, EvRetire)
		m.releaseIQ(u)
		if m.inRQ(u) {
			m.win.clearBit(m.win.inRQ, u.slot)
			m.rqCount--
		}
		if u.inst.Class.IsMem() {
			// LSQ head must be this instruction (program order).
			if m.lsqLen > 0 && m.lsqAt(0) == u {
				m.lsqPopFront()
			}
		}
		m.win.clearSlot(u.slot)
		m.rob[m.robHead] = nil
		m.robHead = (m.robHead + 1) % len(m.rob)
		m.robCount--
		m.headSeq++
		// The retire-stream digest stops at the run target: the final
		// cycle may overshoot by up to Width-1 retirements, and those
		// must not make the digest depend on retire bandwidth.
		if m.stats.Retired < m.hashTarget {
			m.retireHash = isa.HashInst(m.retireHash, &u.inst)
		}
		m.stats.Retired++
		m.pol.onRetire(m, u)
		m.freeUop(u)
	}
}
