package core

import (
	"context"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/prefetch"
	"repro/internal/smpred"
	"repro/internal/vpred"
	"repro/internal/workload"
)

// Machine is one simulated processor instance. Build with New, run with
// Run. Run may be called once per New or Reset; Reset restores the
// machine for a fresh run while reusing the previous run's allocations,
// so a pool of machines can serve many simulations without rebuilding
// the window, event wheel or cache arrays each time.
//
// The cycle loop is allocation-free in steady state: uops are recycled
// through a fixed pool, events live on a circular wheel, and the
// window-side queues (fetch buffer, LSQ, rename vectors) are rings.
type Machine struct {
	cfg  Config
	src  workload.Stream
	hier *cache.Hierarchy
	bp   *bpred.Predictor
	sp   *smpred.Predictor
	// pol is the replay policy: all scheme-specific behaviour and state
	// (token pool, rename vectors, serial chains, ...) lives behind it.
	pol replayPolicy
	// vp is the load value predictor (nil unless ValuePrediction).
	vp *vpred.Predictor
	// pf is the data prefetcher (nil unless Prefetch.Kind is set), fed
	// by execLoad and filling DL1 through the hierarchy's demand MSHRs.
	pf *prefetch.Prefetcher

	cycle int64

	// rob is the reorder buffer, a ring of in-window uops. headSeq is
	// the sequence number at robHead; sequence numbers are dense, so
	// window lookup is arithmetic.
	rob      []*uop
	robHead  int
	robCount int
	headSeq  int64

	// win is the structure-of-arrays scheduler window: the hot per-uop
	// scheduling state packed into bitmap planes and parallel arrays
	// indexed by window slot (see window.go). The ROB ring and the
	// window arrays advance together — slot = seq mod ROBSize.
	win schedWindow

	// pool is the uop arena; free holds recycled entries. The window
	// admits at most ROBSize live uops, so the pool never grows.
	pool []uop
	free []*uop

	// iqCount tracks occupied issue-queue entries.
	iqCount int
	// rqCount tracks issued-unverified instructions under the
	// replay-queue model.
	rqCount int
	// lsq is a ring holding in-window loads and stores in program
	// order: lsqLen live entries starting at lsqHead.
	lsq     []*uop
	lsqHead int
	lsqLen  int

	// Front end: fetchQ is a ring of fetched instructions waiting out
	// the front-end depth. Its capacity is ROBSize+fetchQCap — enough
	// for a refetch replay to push the whole window back through it.
	// nextInst is the read-ahead from the trace.
	fetchQ       []fetchEntry
	fqHead       int
	fqLen        int
	nextInst     isa.Inst
	haveNext     bool
	fetchStall   int64 // no fetch until this cycle
	blockedOnSeq int64 // mispredicted branch gating fetch, -1 if none
	lastLine     uint64
	haveLastLine bool

	// wheel is the cycle-indexed event queue: slot cycle&wheelMask holds
	// the events for that cycle. The horizon (wheel length) exceeds the
	// largest possible scheduling lead — a main-memory round trip plus
	// pipeline depths — and schedule panics if an event would lap it.
	wheel     [][]event
	wheelMask int64

	// Re-insert replay state: reinsertPending counts flagged
	// instructions awaiting program-order re-insertion.
	reinsertActive  bool
	reinsertPending int

	// killStack is the reusable DFS worklist for selective and value
	// kills; refetchInsts is the reusable scratch for the refetch
	// scheme's front-end rebuild.
	killStack    []*uop
	refetchInsts []isa.Inst

	stats Stats
	// meter feeds Figure 9 (predictor coverage); recorded on each
	// load's first execution.
	meter smpred.CoverageMeter
	// sink receives pipeline lifecycle events (tooling only: stream
	// recording, visualization); nil when nothing is attached.
	sink EventSink
	// evCount counts every emitted pipeline event, advancing identically
	// with or without a sink or monitor attached; it is the
	// deterministic cursor recorded streams and Violation.Cursor index
	// with.
	evCount int64
	// Warm-up bookkeeping: warmed flips once Warmup instructions have
	// retired, and warmBase is the statistics snapshot at that boundary
	// (subtracted from the final numbers).
	warmed   bool
	warmBase Stats
	// mon drives the invariant monitors; nil when cfg.Check is off, so
	// the disabled path costs one nil test per emitted event.
	mon *monitor

	// retireHash chains the retired instruction stream into a digest
	// (always on; the validation layer compares it across check levels
	// and against the oracle). hashTarget stops the chain at
	// Warmup+MaxInsts so the final cycle's overshoot retirements do not
	// make the digest depend on retire bandwidth.
	retireHash uint64
	hashTarget int64

	ran bool
}

type fetchEntry struct {
	inst isa.Inst
	// readyAt is when the instruction becomes eligible for dispatch.
	readyAt int64
}

type evKind uint8

const (
	// evExec: the uop reaches the execute stage.
	evExec evKind = iota
	// evBroadcast: the uop broadcasts its result tag (wakeup).
	evBroadcast
	// evComplete: the uop reaches completion with valid data.
	evComplete
	// evKill: a load scheduling miss's kill signal reaches the
	// scheduler.
	evKill
	// evOpWake: targeted revalidation of one operand (completion bus /
	// completion-group effects).
	evOpWake
	// evReinsertStart: begin re-insert replay for the payload load.
	evReinsertStart
	// evSerialStep: one level of serial verification propagation.
	evSerialStep
)

type event struct {
	kind evKind
	u    *uop
	gen  int
	// life is the uop-pool incarnation the event was scheduled under;
	// stamped by schedule/scheduleNow, checked before dispatching so an
	// event never acts on a recycled uop.
	life int
	// op is the operand index for evOpWake.
	op int
	// depth is the propagation level for evSerialStep.
	depth int
	// chain tracks an in-progress serial propagation (1-based index
	// into the serial policy's chain table).
	chain serialChainID
}

// New builds a machine over the given workload stream. The stream must
// produce valid instructions (see isa.Inst.Validate); the workload
// generator guarantees this.
func New(cfg Config, src workload.Stream) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{}
	m.init(cfg, src)
	return m, nil
}

// Reset rebuilds the machine for a new run over a (possibly different)
// configuration and stream, reusing the previous run's allocations
// wherever the sizes still fit. A reset machine behaves identically to
// a freshly constructed one; the experiment runner pools machines
// across its sweep on the strength of that guarantee.
func (m *Machine) Reset(cfg Config, src workload.Stream) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.init(cfg, src)
	return nil
}

// horizonFor bounds how far ahead any event can be scheduled: the worst
// case is a load completing off a main-memory fill observed through an
// in-flight line (two DL1 latencies plus L2 plus memory), stacked on
// the schedule-to-execute depth, verification, the re-insert delay and
// the longest functional-unit latency, with slack for the +1-style
// nudges handlers apply. Rounded up to a power of two, minimum 64.
func horizonFor(cfg Config) int64 {
	h := cfg.Hierarchy
	lead := cfg.SchedToExec + cfg.VerifyLatency + cfg.ReinsertPenalty +
		isa.MaxExecLatency() +
		2*h.DL1.Latency + h.IL1.Latency + h.L2.Latency + h.MemLatency + 32
	n := int64(64)
	for n < int64(lead) {
		n <<= 1
	}
	return n
}

// init (re)builds all run state. Size-dependent storage is reallocated
// only when the configuration demands a different shape.
func (m *Machine) init(cfg Config, src workload.Stream) {
	reuseHier := m.hier != nil && m.cfg.Hierarchy == cfg.Hierarchy
	reuseBp := m.bp != nil && m.cfg.Bpred == cfg.Bpred
	reuseSp := m.sp != nil && m.cfg.SMPred == cfg.SMPred
	reuseVp := m.vp != nil && cfg.ValuePrediction && m.cfg.VPred == cfg.VPred
	reusePf := m.pf != nil && cfg.Prefetch.Kind != prefetch.KindOff &&
		m.cfg.Prefetch == cfg.Prefetch

	m.cfg = cfg
	m.src = src

	if reuseHier {
		m.hier.Reset()
	} else {
		m.hier = cache.NewHierarchy(cfg.Hierarchy)
	}
	if reuseBp {
		m.bp.Reset()
	} else {
		m.bp = bpred.New(cfg.Bpred)
	}
	if reuseSp {
		m.sp.Reset()
	} else {
		m.sp = smpred.New(cfg.SMPred)
	}
	switch {
	case !cfg.ValuePrediction:
		m.vp = nil
	case reuseVp:
		m.vp.Reset()
	default:
		m.vp = vpred.New(cfg.VPred)
	}
	if reusePf {
		m.pf.Reset()
	} else {
		m.pf = prefetch.New(cfg.Prefetch) // nil for KindOff
	}

	m.cycle = 0

	if len(m.rob) != cfg.ROBSize {
		m.rob = make([]*uop, cfg.ROBSize)
		m.pool = make([]uop, cfg.ROBSize)
		m.free = make([]*uop, 0, cfg.ROBSize)
	} else {
		for i := range m.rob {
			m.rob[i] = nil
		}
		m.free = m.free[:0]
	}
	for i := range m.pool {
		m.pool[i] = uop{consumers: m.pool[i].consumers[:0]}
		m.free = append(m.free, &m.pool[i])
	}
	m.robHead, m.robCount, m.headSeq = 0, 0, 0
	m.win.init(cfg.ROBSize)
	m.iqCount, m.rqCount = 0, 0

	if len(m.lsq) != cfg.LSQSize {
		m.lsq = make([]*uop, cfg.LSQSize)
	} else {
		for i := range m.lsq {
			m.lsq[i] = nil
		}
	}
	m.lsqHead, m.lsqLen = 0, 0

	fqCap := cfg.ROBSize + cfg.Width*(cfg.FrontEndDepth+2)
	if len(m.fetchQ) != fqCap {
		m.fetchQ = make([]fetchEntry, fqCap)
	}
	m.fqHead, m.fqLen = 0, 0
	m.nextInst = isa.Inst{}
	m.haveNext = false
	m.fetchStall = 0
	m.blockedOnSeq = -1
	m.lastLine, m.haveLastLine = 0, false

	hz := horizonFor(cfg)
	if int64(len(m.wheel)) != hz {
		m.wheel = make([][]event, hz)
	} else {
		for i := range m.wheel {
			m.wheel[i] = m.wheel[i][:0]
		}
	}
	m.wheelMask = hz - 1

	m.reinsertActive, m.reinsertPending = false, 0

	// The policy survives resets to the same scheme so its private
	// state (token pool, rename-vector ring, chain slices) is reused;
	// reset is the policy's one allocation point.
	if m.pol == nil || m.pol.scheme() != cfg.Scheme {
		m.pol = newPolicy(cfg.Scheme)
	}
	m.pol.reset(m)

	m.killStack = m.killStack[:0]
	m.refetchInsts = m.refetchInsts[:0]

	// The monitor survives resets at the same level so its checkers'
	// private state is reused; like the policy, reset is its one
	// allocation point.
	if cfg.Check > CheckOff {
		if m.mon == nil || m.mon.level != cfg.Check {
			m.mon = newMonitor(cfg.Check)
		}
		m.mon.reset(m)
	} else {
		m.mon = nil
	}
	m.retireHash = isa.HashInit
	m.hashTarget = cfg.Warmup + cfg.MaxInsts

	m.stats = Stats{}
	m.meter = smpred.CoverageMeter{}
	m.sink = nil
	m.evCount = 0
	m.warmed = cfg.Warmup == 0
	m.warmBase = Stats{}
	m.ran = false
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns the accumulated statistics; valid after Run. The
// pointer aliases machine state: callers keeping results past a Reset
// must copy (see Stats.Clone).
func (m *Machine) Stats() *Stats { return &m.stats }

// Meter returns the scheduling-miss predictor coverage meter (Figure 9
// data); valid after Run. Like Stats, copy before reusing the machine.
func (m *Machine) Meter() *smpred.CoverageMeter { return &m.meter }

// ValuePredictor exposes the load value predictor (nil unless value
// prediction is enabled).
func (m *Machine) ValuePredictor() *vpred.Predictor { return m.vp }

// deadlockWindow is how many cycles without a retirement trigger a
// diagnostic panic; real stalls (memory misses, re-inserts) are two
// orders of magnitude shorter.
const deadlockWindow = 200_000

// cancelCheckInterval is the cycle granularity of RunContext's
// cancellation check: a power of two, so the per-cycle cost is a nil
// check plus a mask, and a cancel or deadline is noticed within a few
// microseconds of simulated work — far below any run's wall time.
const cancelCheckInterval = 4096

// canceled reports whether the run's context was canceled. done is
// ctx.Done(), hoisted by the caller so the common case (background
// context, off-boundary cycle) costs no channel or mutex operations.
func (m *Machine) canceled(done <-chan struct{}) bool {
	if done == nil || m.cycle&(cancelCheckInterval-1) != 0 {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Run simulates Warmup instructions unmeasured, then MaxInsts measured
// instructions, and returns the statistics.
func (m *Machine) Run() (*Stats, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run with cancellation: the context's cancel or
// deadline is checked every cancelCheckInterval cycles, and a canceled
// run returns the context's error (wrapped) with the machine left
// mid-flight. The machine is single-shot either way — Reset before
// reusing it, as a batch engine's pool does.
func (m *Machine) RunContext(ctx context.Context) (*Stats, error) {
	if m.ran {
		return nil, fmt.Errorf("core: machine already ran")
	}
	m.ran = true
	done := ctx.Done()
	lastRetire := m.cycle
	lastCount := m.stats.Retired
	target := m.cfg.Warmup + m.cfg.MaxInsts
	for m.stats.Retired < target {
		m.step()
		if m.mon != nil && len(m.mon.violations) > 0 {
			m.stats.Cycles = m.cycle
			return nil, m.mon.err(m.cfg.Scheme)
		}
		if m.canceled(done) {
			return nil, fmt.Errorf("core: run canceled at cycle %d: %w", m.cycle, ctx.Err())
		}
		if !m.warmed && m.stats.Retired >= m.cfg.Warmup {
			m.warmed = true
			m.warmBase = m.stats
			m.warmBase.Cycles = m.cycle
		}
		if m.stats.Retired != lastCount {
			lastCount = m.stats.Retired
			lastRetire = m.cycle
		} else if m.cycle-lastRetire > deadlockWindow {
			return nil, fmt.Errorf("core: no retirement for %d cycles at cycle %d (scheme %v, head %s)",
				deadlockWindow, m.cycle, m.cfg.Scheme, m.describeHead())
		}
	}
	m.stats.Cycles = m.cycle
	if m.cfg.Warmup > 0 {
		m.stats.subtract(&m.warmBase)
	}
	m.stats.RetireHash = m.retireHash
	m.pol.finish(m)
	if m.mon != nil {
		m.mon.finish(m)
		if err := m.mon.err(m.cfg.Scheme); err != nil {
			return nil, err
		}
	}
	return &m.stats, nil
}

// step advances one cycle. Phase order matters: kills must apply before
// completions so a dependent detected mis-scheduled never completes in
// the same cycle, and retirement sees the cycle's final state.
func (m *Machine) step() {
	m.cycle++
	m.runEvents()
	m.retire()
	m.reinsertStep()
	m.selectAndIssue()
	m.dispatch()
	m.fetch()
	slot := m.cycle & m.wheelMask
	m.wheel[slot] = m.wheel[slot][:0]
	if m.mon != nil {
		m.mon.cycleEnd(m)
	}
}

// runEvents drains this cycle's event list in schedule order. Handlers
// may append more events for the same cycle (e.g. a kill scheduling an
// operand wake); the loop picks those up. Events whose uop was recycled
// since scheduling are stale and skipped.
func (m *Machine) runEvents() {
	slot := m.cycle & m.wheelMask
	list := m.wheel[slot]
	for i := 0; i < len(list); i++ {
		ev := list[i]
		if ev.u.life != ev.life {
			list = m.wheel[slot]
			continue
		}
		switch ev.kind {
		case evKill:
			// Kills run before anything else this cycle; they were
			// scheduled first (detection precedes dependent completion
			// by construction).
			m.handleKill(ev)
		case evExec:
			m.handleExec(ev)
		case evBroadcast:
			m.handleBroadcast(ev)
		case evComplete:
			m.handleComplete(ev)
		case evOpWake:
			m.handleOpWake(ev)
		case evReinsertStart:
			m.handleReinsertStart(ev)
		case evSerialStep:
			m.handleSerialStep(ev)
		}
		list = m.wheel[slot]
	}
}

func (m *Machine) schedule(cycle int64, ev event) {
	if cycle <= m.cycle {
		cycle = m.cycle + 1
	}
	if cycle-m.cycle >= int64(len(m.wheel)) {
		panic(fmt.Sprintf("core: event %d cycles ahead overflows the %d-cycle event wheel",
			cycle-m.cycle, len(m.wheel)))
	}
	ev.life = ev.u.life
	slot := cycle & m.wheelMask
	m.wheel[slot] = append(m.wheel[slot], ev)
}

// scheduleNow appends an event to the current cycle's list (used by
// handlers that fan out work within the cycle).
func (m *Machine) scheduleNow(ev event) {
	ev.life = ev.u.life
	slot := m.cycle & m.wheelMask
	m.wheel[slot] = append(m.wheel[slot], ev)
}

// allocUop takes a recycled uop from the pool. The window admits at
// most ROBSize live uops, so the pool cannot run dry.
func (m *Machine) allocUop() *uop {
	n := len(m.free)
	if n == 0 {
		panic("core: uop pool empty")
	}
	u := m.free[n-1]
	m.free = m.free[:n-1]
	u.recycle()
	return u
}

// freeUop returns a retired or flushed uop to the pool. The life bump
// invalidates any events still in flight against it.
func (m *Machine) freeUop(u *uop) {
	u.life++
	m.free = append(m.free, u)
}

// lookup returns the in-window uop with the given sequence number, or
// nil when it has retired (or never dispatched).
func (m *Machine) lookup(seq int64) *uop {
	if seq < m.headSeq || seq >= m.headSeq+int64(m.robCount) {
		return nil
	}
	return m.rob[(m.robHead+int(seq-m.headSeq))%len(m.rob)]
}

// prod resolves operand i's producing uop, or nil when the operand had
// no in-window producer at rename or the producer has since left the
// window (retired — value architecturally available).
func (m *Machine) prod(u *uop, i int) *uop {
	seq := m.win.tag[i][u.slot]
	if seq < 0 {
		return nil
	}
	return m.lookup(seq)
}

// tailSeq returns the sequence number one past the youngest in-window
// instruction.
func (m *Machine) tailSeq() int64 { return m.headSeq + int64(m.robCount) }

// lsqAt returns the i-th oldest LSQ entry.
func (m *Machine) lsqAt(i int) *uop { return m.lsq[(m.lsqHead+i)%len(m.lsq)] }

func (m *Machine) lsqPush(u *uop) {
	if m.lsqLen >= len(m.lsq) {
		panic("core: LSQ ring overflow")
	}
	m.lsq[(m.lsqHead+m.lsqLen)%len(m.lsq)] = u
	m.lsqLen++
}

func (m *Machine) lsqPopFront() {
	m.lsq[m.lsqHead] = nil
	m.lsqHead = (m.lsqHead + 1) % len(m.lsq)
	m.lsqLen--
}

// fqAt returns the i-th oldest fetch-buffer entry.
func (m *Machine) fqAt(i int) *fetchEntry { return &m.fetchQ[(m.fqHead+i)%len(m.fetchQ)] }

func (m *Machine) fqPush(fe fetchEntry) {
	if m.fqLen >= len(m.fetchQ) {
		panic("core: fetch ring overflow")
	}
	m.fetchQ[(m.fqHead+m.fqLen)%len(m.fetchQ)] = fe
	m.fqLen++
}

func (m *Machine) fqPopFront() {
	m.fqHead = (m.fqHead + 1) % len(m.fetchQ)
	m.fqLen--
}

func (m *Machine) describeHead() string {
	if m.robCount == 0 {
		return "empty window"
	}
	u := m.rob[m.robHead]
	return fmt.Sprintf("seq=%d class=%v issued=%v completed=%v inIQ=%v ready=%v hold=%d",
		u.seq(), u.inst.Class, m.issuedState(u), m.completedState(u), m.inIQ(u),
		m.allReady(u), m.holdUntil(u))
}
