package core

import "repro/internal/isa"

// PipeEventKind labels one pipeline lifecycle event.
type PipeEventKind uint8

const (
	// EvDispatch: the instruction entered the window (rename/dispatch).
	EvDispatch PipeEventKind = iota
	// EvIssue: selected by the scheduler (speculatively).
	EvIssue
	// EvExecute: reached the execute stage.
	EvExecute
	// EvComplete: completed with valid data (verified).
	EvComplete
	// EvSquash: invalidated as a dependent of a replay event; will
	// re-issue.
	EvSquash
	// EvRetire: committed.
	EvRetire
	// EvFetch: the instruction entered the front end from the trace.
	EvFetch
	// EvReplay: a mis-scheduled load returned to the waiting state (the
	// replay root; its invalidated dependents get EvSquash).
	EvReplay
	numPipeEventKinds
)

// String returns a one-letter mnemonic used by timeline renderers.
func (k PipeEventKind) String() string {
	switch k {
	case EvDispatch:
		return "D"
	case EvIssue:
		return "I"
	case EvExecute:
		return "X"
	case EvComplete:
		return "C"
	case EvSquash:
		return "!"
	case EvRetire:
		return "R"
	case EvFetch:
		return "F"
	case EvReplay:
		return "r"
	}
	return "?"
}

// PipeEvent is one observed lifecycle event, delivered to the machine's
// event sink as it happens.
type PipeEvent struct {
	Cycle int64
	Seq   int64
	PC    uint64
	Class isa.Class
	Kind  PipeEventKind
}

// EventSink receives every pipeline lifecycle event as it is emitted.
// Sinks are tooling (stream recording, pipeline visualization,
// debugging) and must not perturb the simulation; implementations on
// the hot path (internal/evstream's Recorder) must not allocate per
// event.
type EventSink interface {
	Event(PipeEvent)
}

// SinkFunc adapts an ordinary function to the EventSink interface:
// SetSink(SinkFunc(f)) calls f for every event.
type SinkFunc func(PipeEvent)

// Event calls f(ev).
func (f SinkFunc) Event(ev PipeEvent) { f(ev) }

// SetSink installs the machine's event sink, receiving every pipeline
// lifecycle event (fetch through retire). Observation is for tooling
// and has no effect on simulation; pass nil to disable. Must be set
// after New/Reset and before Run.
func (m *Machine) SetSink(s EventSink) { m.sink = s }

// EventCount returns how many pipeline events the machine has emitted
// so far. The count advances identically whether or not a sink or
// monitor is attached, so it is a deterministic cursor into the
// machine's event stream (Violation.Cursor indexes with it).
func (m *Machine) EventCount() int64 { return m.evCount }

func (m *Machine) emit(u *uop, kind PipeEventKind) {
	m.evCount++
	if m.mon != nil {
		m.mon.record(m, u, kind)
	}
	if m.sink == nil {
		return
	}
	m.sink.Event(PipeEvent{
		Cycle: m.cycle, Seq: u.seq(), PC: u.inst.PC, Class: u.inst.Class, Kind: kind,
	})
}

// emitFetch emits the front-end fetch event. Fetch happens before a
// uop exists, so it bypasses the monitor (whose checkers observe
// in-window instructions) and feeds only the sink; the event count
// still advances so stream cursors cover the full lifecycle.
func (m *Machine) emitFetch(in isa.Inst) {
	m.evCount++
	if m.sink == nil {
		return
	}
	m.sink.Event(PipeEvent{
		Cycle: m.cycle, Seq: in.Seq, PC: in.PC, Class: in.Class, Kind: EvFetch,
	})
}
