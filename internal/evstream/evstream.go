// Package evstream serializes the pipeline event stream to a compact
// binary format (.evs) and replays it. A recorded stream decouples
// observation from simulation the way internal/trace decouples
// workload generation: record a run once, then scrub through it —
// pipeview time travel, replayable validation findings — without
// re-simulating from cycle zero.
//
// Format (version 1): the magic "SREVENT1", a JSON header framed by a
// uvarint length, then records. An event record's first byte has bit 7
// clear: bits 0–2 the event kind, bits 3–4 a cycle-delta code (0 =
// same cycle, 1 = next cycle, 2 = unsigned varint delta follows; 3 is
// reserved), bit 5 a PC-payload flag (set on fetch and dispatch
// events, which append a zigzag-varint PC delta and a class byte), and
// bit 6 reserved. A zigzag-varint sequence-number delta always
// follows the first byte and any cycle delta. Bit 7 is reserved for
// control records; none is defined, so a reader rejects a first byte
// with it set. Typical event records are two to three bytes; fetch
// records with their PC payload stay under eight.
//
// The Recorder is an allocation-free core.EventSink: events encode
// into a preallocated page that flushes to the underlying writer only
// when nearly full, so recording rides the simulator's hot loop
// without disturbing its zero-allocation property (the repolint escape
// gate proves this from the compiler's own escape analysis).
package evstream

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/isa"
)

// magic identifies version 1 event-stream files.
const magic = "SREVENT1"

const (
	// pageSize is the Recorder's buffer; events flush to the writer in
	// page units, never per event.
	pageSize = 64 << 10
	// maxEventLen bounds one encoded event record (first byte, three
	// varints, class byte); the page flushes when less than this
	// remains.
	maxEventLen = 1 + 3*binary.MaxVarintLen64 + 1

	// maxHeaderLen caps the framed JSON header a reader will accept.
	maxHeaderLen = 1 << 20
)

// First-byte layout of an event record.
const (
	evKindMask  = 0x07 // bits 0-2: core.PipeEventKind
	evCycShift  = 3    // bits 3-4: cycle-delta code
	evCycMask   = 0x03
	evHasPC     = 1 << 5 // bit 5: PC delta + class byte follow
	evReserved  = 1 << 6 // bit 6: must be zero
	ctlBit      = 1 << 7 // bit 7: control record (none defined)
	cycSame     = 0
	cycNext     = 1
	cycVarint   = 2
	cycReserved = 3
)

// Stream-shape errors a caller may want to distinguish.
var (
	// ErrPastEnd reports a seek past the last recorded cycle.
	ErrPastEnd = errors.New("evstream: seek past end of stream")
	// errNonMonotonic is the Recorder's sticky error when events arrive
	// with a decreasing cycle stamp (static misuse of the sink).
	errNonMonotonic = errors.New("evstream: event cycle decreased")
)

// Header is the stream's self-description, stored as JSON right after
// the magic so `strings file.evs` shows what a stream holds.
type Header struct {
	// Spec is the human-readable run spec (scheme/bench/model flags).
	Spec string `json:"spec,omitempty"`
	// Seed is the workload seed the run used.
	Seed int64 `json:"seed,omitempty"`
	// Note is free-form provenance (which tool recorded the stream).
	Note string `json:"note,omitempty"`
}

// Recorder encodes pipeline events to an .evs stream. It implements
// core.EventSink; Event is allocation-free and safe to leave attached
// for a whole run. Errors are sticky: the first failure latches and
// every later call is a no-op, so the hot path never branches on I/O
// results — check Err (or Flush) once, after the run.
type Recorder struct {
	w    io.Writer
	page []byte
	n    int64

	lastCycle int64
	lastSeq   int64
	lastPC    uint64

	err error
}

// NewRecorder writes the magic and header and returns a Recorder.
// Call Flush when the run completes.
func NewRecorder(w io.Writer, hdr Header) (*Recorder, error) {
	blob, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("evstream: encoding header: %w", err)
	}
	frame := make([]byte, 0, len(magic)+binary.MaxVarintLen64+len(blob))
	frame = append(frame, magic...)
	frame = binary.AppendUvarint(frame, uint64(len(blob)))
	frame = append(frame, blob...)
	if _, err := w.Write(frame); err != nil {
		return nil, fmt.Errorf("evstream: writing header: %w", err)
	}
	return &Recorder{w: w, page: make([]byte, 0, pageSize)}, nil
}

// Event implements core.EventSink: encode one event into the page,
// flushing first if the page cannot hold a worst-case record.
func (r *Recorder) Event(ev core.PipeEvent) {
	if r.err != nil {
		return
	}
	if len(r.page) > pageSize-maxEventLen {
		r.flushPage()
		if r.err != nil {
			return
		}
	}

	delta := ev.Cycle - r.lastCycle
	if delta < 0 {
		r.err = errNonMonotonic
		return
	}
	b0 := byte(ev.Kind) & evKindMask
	hasPC := ev.Kind == core.EvFetch || ev.Kind == core.EvDispatch
	if hasPC {
		b0 |= evHasPC
	}
	switch delta {
	case 0:
		// cycSame is zero; nothing to set.
	case 1:
		b0 |= cycNext << evCycShift
	default:
		b0 |= cycVarint << evCycShift
	}
	r.page = append(r.page, b0)
	if delta > 1 {
		r.page = binary.AppendUvarint(r.page, uint64(delta))
	}
	r.page = binary.AppendVarint(r.page, ev.Seq-r.lastSeq)
	if hasPC {
		r.page = binary.AppendVarint(r.page, int64(ev.PC-r.lastPC))
		r.page = append(r.page, byte(ev.Class))
		r.lastPC = ev.PC
	}
	r.lastCycle = ev.Cycle
	r.lastSeq = ev.Seq
	r.n++
}

// flushPage drains the page to the writer; the raw write error latches
// (no wrapping here — this runs under the hot path's escape gate).
func (r *Recorder) flushPage() {
	if len(r.page) == 0 {
		return
	}
	_, err := r.w.Write(r.page)
	if err != nil {
		r.err = err
		return
	}
	r.page = r.page[:0]
}

// Count returns how many events have been recorded.
func (r *Recorder) Count() int64 { return r.n }

// Err returns the sticky error, if any.
func (r *Recorder) Err() error { return r.err }

// Flush drains buffered output; call it once after the run.
func (r *Recorder) Flush() error {
	r.flushPage()
	return r.err
}

// Reader decodes an .evs stream sequentially.
type Reader struct {
	r   *bufio.Reader
	hdr Header

	lastCycle int64
	lastSeq   int64
	lastPC    uint64

	err error
}

// NewReader validates the magic, decodes the header, and returns a
// Reader.
func NewReader(rd io.Reader) (*Reader, error) {
	br := bufio.NewReader(rd)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("evstream: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("evstream: bad magic %q", head)
	}
	hlen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("evstream: reading header length: %w", err)
	}
	if hlen > maxHeaderLen {
		return nil, fmt.Errorf("evstream: header length %d exceeds the %d cap", hlen, maxHeaderLen)
	}
	blob := make([]byte, hlen)
	if _, err := io.ReadFull(br, blob); err != nil {
		return nil, fmt.Errorf("evstream: reading header: %w", err)
	}
	var hdr Header
	if err := json.Unmarshal(blob, &hdr); err != nil {
		return nil, fmt.Errorf("evstream: decoding header: %w", err)
	}
	return &Reader{r: br, hdr: hdr}, nil
}

// Header returns the stream's self-description.
func (d *Reader) Header() Header { return d.hdr }

// Next returns the next event, or io.EOF at the end of the stream.
// Errors (including io.EOF) are sticky.
func (d *Reader) Next() (core.PipeEvent, error) {
	if d.err != nil {
		return core.PipeEvent{}, d.err
	}
	ev, err := d.decode()
	if err != nil {
		d.err = err
		return core.PipeEvent{}, err
	}
	return ev, nil
}

func (d *Reader) decode() (core.PipeEvent, error) {
	b0, err := d.r.ReadByte()
	if err != nil {
		if err == io.EOF {
			return core.PipeEvent{}, io.EOF
		}
		return core.PipeEvent{}, fmt.Errorf("evstream: %w", err)
	}
	if b0&ctlBit != 0 {
		return core.PipeEvent{}, fmt.Errorf("evstream: unknown control record 0x%02x", b0)
	}
	if b0&evReserved != 0 {
		return core.PipeEvent{}, fmt.Errorf("evstream: event record sets reserved bit 6 (byte 0x%02x)", b0)
	}
	kind := core.PipeEventKind(b0 & evKindMask)
	hasPC := b0&evHasPC != 0
	if wantPC := kind == core.EvFetch || kind == core.EvDispatch; hasPC != wantPC {
		return core.PipeEvent{}, fmt.Errorf("evstream: event kind %v with PC-payload flag %v", kind, hasPC)
	}

	cycle := d.lastCycle
	switch code := (b0 >> evCycShift) & evCycMask; code {
	case cycSame:
	case cycNext:
		cycle++
	case cycVarint:
		delta, err := binary.ReadUvarint(d.r)
		if err != nil {
			return core.PipeEvent{}, fmt.Errorf("evstream: truncated cycle delta: %w", err)
		}
		if delta > uint64(math.MaxInt64-cycle) {
			return core.PipeEvent{}, fmt.Errorf("evstream: cycle delta %d overflows from cycle %d", delta, cycle)
		}
		cycle += int64(delta)
	default:
		return core.PipeEvent{}, fmt.Errorf("evstream: reserved cycle-delta code")
	}

	seqDelta, err := binary.ReadVarint(d.r)
	if err != nil {
		return core.PipeEvent{}, fmt.Errorf("evstream: truncated sequence delta: %w", err)
	}
	seq := d.lastSeq + seqDelta
	if (seqDelta > 0) != (seq > d.lastSeq) && seqDelta != 0 {
		return core.PipeEvent{}, fmt.Errorf("evstream: sequence delta %d overflows from %d", seqDelta, d.lastSeq)
	}

	ev := core.PipeEvent{Cycle: cycle, Seq: seq, Kind: kind}
	if hasPC {
		pcDelta, err := binary.ReadVarint(d.r)
		if err != nil {
			return core.PipeEvent{}, fmt.Errorf("evstream: truncated PC delta: %w", err)
		}
		classB, err := d.r.ReadByte()
		if err != nil {
			return core.PipeEvent{}, fmt.Errorf("evstream: truncated class byte: %w", err)
		}
		if classB >= byte(isa.NumClasses) {
			return core.PipeEvent{}, fmt.Errorf("evstream: event class %d out of range", classB)
		}
		ev.PC = d.lastPC + uint64(pcDelta)
		ev.Class = isa.Class(classB)
		d.lastPC = ev.PC
	}
	d.lastCycle = cycle
	d.lastSeq = seq
	return ev, nil
}

// SeekCycle scans forward to the first event at or past cycle and
// returns it. The returned event is consumed; the next Next call
// continues after it. A stream that ends first returns ErrPastEnd
// annotated with the last cycle seen.
func (d *Reader) SeekCycle(cycle int64) (core.PipeEvent, error) {
	last := int64(-1)
	for {
		ev, err := d.Next()
		if err == io.EOF {
			return core.PipeEvent{}, fmt.Errorf("%w: want cycle %d, stream ends at cycle %d",
				ErrPastEnd, cycle, last)
		}
		if err != nil {
			return core.PipeEvent{}, err
		}
		last = ev.Cycle
		if ev.Cycle >= cycle {
			return ev, nil
		}
	}
}
