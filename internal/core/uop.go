package core

import (
	"math"

	"repro/internal/isa"
	"repro/internal/smpred"
	"repro/internal/token"
)

// unknown marks a cycle that has not been determined yet.
const unknown int64 = math.MaxInt64

// uop is one in-flight dynamic instruction with its scheduling state.
type uop struct {
	inst isa.Inst

	// slot is the uop's window slot — its index into the scheduler's
	// structure-of-arrays state (see window.go). Fixed at dispatch
	// (slot = seq mod ROBSize) and valid until the slot is vacated; the
	// hot scheduling state (queue membership, issue/completion status,
	// operand readiness, replay timers) lives in the window arrays
	// under this index, accessed through the Machine's slot-accessor
	// API.
	slot int32
	// squashes counts how many times the instruction was invalidated
	// and returned to the waiting state.
	squashes int
	// issues counts issue events (first issue plus replays).
	issues int
	// gen increments whenever the instruction is squashed; in-flight
	// events carry the gen they were scheduled under and are dropped on
	// mismatch.
	gen int
	// life increments whenever the uop object is recycled for a new
	// dynamic instruction (the window pools uops instead of allocating).
	// Every scheduled event is stamped with the life it was scheduled
	// under; a mismatch means the event targets a dead occupant.
	life int

	// issueCycle is the cycle of the most recent issue.
	issueCycle int64
	// execStart is issueCycle + SchedToExec for the current issue.
	execStart int64
	// schedLat is the latency the scheduler assumed (loads: agen + DL1
	// hit).
	schedLat int
	// actualLat is the execution latency resolved at execute time for
	// the current issue (loads: agen + memory latency); equals schedLat
	// for non-loads.
	actualLat int
	// broadcastCycle is when the current issue's wakeup tag reaches
	// consumers (normally issueCycle+schedLat; conservative loads defer
	// it to execute time; unknown until scheduled).
	broadcastCycle int64
	// completeCycle is when the current issue completes (execStart +
	// actualLat); unknown until execution resolves it.
	completeCycle int64
	// dataReadyAt is when the result value is actually available to
	// consumers; unknown until resolved.
	dataReadyAt int64

	// consumers are the sequence numbers of in-window instructions with
	// an operand fed by this instruction. Sequence numbers, not
	// pointers: consumers may be recycled (retired or flushed) while the
	// producer lives on, and a window lookup naturally skips the dead.
	consumers []int64

	// missed reports the current issue incurred a scheduling miss
	// (resolved at execute for loads).
	missed bool
	// missLevel is the cache level that caused the miss, for stats.
	missKind missKind

	// poisoned marks a DSel instruction that consumed a speculative
	// value sourced from a mis-scheduled load (poison bit, §3.4.2).
	poisoned bool

	// conf is the scheduling-miss confidence looked up at dispatch
	// (loads only).
	conf smpred.Confidence
	// conservative marks a load scheduled pessimistically under the
	// Conservative scheme.
	conservative bool

	// valuePredicted marks a load whose consumers received a predicted
	// value at rename; valueWrong records the verification outcome once
	// the load's memory access completes.
	valuePredicted bool
	valueWrong     bool

	// tokenID is the token held by this load, or -1 (TkSel).
	tokenID int
	// tokenStolen records that a token this load held was reclaimed
	// for a higher-confidence load (coverage-loss accounting).
	tokenStolen bool
	// depVec is the token dependence vector propagated at rename.
	depVec token.Vector

	// storeDataSeq is the store's data producer (Src2) — kept explicit
	// because stores issue on address readiness only, with the data
	// operand tracked for forwarding (split store-address/store-data).
	// -1 when the data is immediately available.
	storeDataSeq int64

	// retired marks the instruction as committed (or flushed dead by
	// refetch replay).
	retired bool

	// killMark de-duplicates BFS visits within one kill broadcast.
	killMark int64

	// serialChain/serialDepth place the instruction on an invalid
	// wavefront under SerialVerify: set when serial invalidation (or a
	// stale-data execution) reaches it, so chained misses extend the
	// parent wavefront's depth. The chain is a 1-based index into the
	// serial policy's chain table (0 = not on a wavefront); an index
	// instead of a pointer keeps wavefront starts allocation-free — the
	// table's backing array is reused across runs.
	serialChain serialChainID
	serialDepth int
}

// missKind classifies a scheduling miss for statistics.
type missKind uint8

const (
	missNone missKind = iota
	// missCache is an access-latency misprediction (DL1 miss or
	// secondary access to an in-flight line).
	missCache
	// missAlias is a store-to-load alias whose store data was not ready.
	missAlias
)

func (u *uop) seq() int64 { return u.inst.Seq }

// isLoad reports whether the instruction is a load.
func (u *uop) isLoad() bool { return u.inst.Class == isa.Load }

// opCount returns how many register source operands the uop waits on.
func (u *uop) opCount() int {
	n := 0
	if u.inst.Src1 >= 0 {
		n++
	}
	if u.inst.Src2 >= 0 {
		n++
	}
	return n
}

// srcSeq returns the producer sequence of operand i (or -1).
func (u *uop) srcSeq(i int) int64 {
	if i == 0 {
		return u.inst.Src1
	}
	return u.inst.Src2
}

// recycle prepares a pooled uop for reuse by a new dynamic instruction:
// every field reverts to its zero value except life (bumped so stale
// events referencing the old occupant are dropped) and the consumers
// backing array (kept so the steady state stays allocation-free).
func (u *uop) recycle() {
	cons := u.consumers[:0]
	life := u.life + 1
	*u = uop{consumers: cons, life: life}
}
