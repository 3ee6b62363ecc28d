package cache

import "fmt"

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

const (
	// LevelL1 means the access hit in the first-level cache.
	LevelL1 Level = iota
	// LevelInFlight means the line missed earlier and its fill has not
	// completed; the access waits for the residual fill latency.
	LevelInFlight
	// LevelL2 means the access missed L1 and hit the unified L2.
	LevelL2
	// LevelMemory means the access went to main memory.
	LevelMemory
)

// String names the level for stats output.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelInFlight:
		return "in-flight"
	case LevelL2:
		return "L2"
	default:
		return "memory"
	}
}

// Result describes one data access.
type Result struct {
	// Latency is the total load-to-use latency in cycles.
	Latency int
	// Level is where the access was satisfied.
	Level Level
}

// HierarchyConfig assembles the Table 3 memory system.
type HierarchyConfig struct {
	IL1, DL1, L2 Config
	// MemLatency is main-memory latency in cycles (100 in the paper).
	MemLatency int
}

// DefaultHierarchy returns the paper's Table 3 memory system: 32KB 2-way
// 64B IL1 (2 cycles), 32KB 4-way 64B DL1 (2 cycles), 512KB 4-way 128B
// unified L2 (8 cycles), 100-cycle main memory.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		IL1:        Config{Name: "IL1", SizeBytes: 32 << 10, Assoc: 2, LineBytes: 64, Latency: 2},
		DL1:        Config{Name: "DL1", SizeBytes: 32 << 10, Assoc: 4, LineBytes: 64, Latency: 2},
		L2:         Config{Name: "L2", SizeBytes: 512 << 10, Assoc: 4, LineBytes: 128, Latency: 8},
		MemLatency: 100,
	}
}

// Hierarchy is the two-level data/instruction memory system with MSHR
// tracking of in-flight fills.
//
// In-flight fills are kept in two epoch-rotated maps per side: entries
// are inserted into the current map and consulted in both. Every
// epochLen cycles the previous map — which by then can only contain
// entries whose fills completed — is cleared and becomes current. This
// bounds the tracking state (the old scheme kept cold streaming lines
// forever) and keeps the hot path free of per-line growth.
type Hierarchy struct {
	cfg HierarchyConfig
	il1 *Cache
	dl1 *Cache
	l2  *Cache
	// fills/fillsPrev map DL1 line address -> cycle the fill completes.
	fills, fillsPrev map[uint64]int64
	// instFills/instFillsPrev do the same for IL1 lines.
	instFills, instFillsPrev map[uint64]int64
	// epochLen is at least the worst-case fill latency, so a live
	// in-flight entry is always still present in one of the two maps.
	epochLen int64
	nextSwap int64
}

// NewHierarchy builds the hierarchy. Invalid geometry panics (static
// configuration error).
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	epoch := int64(cfg.IL1.Latency + cfg.DL1.Latency + cfg.L2.Latency + cfg.MemLatency + 64)
	return &Hierarchy{
		cfg:           cfg,
		il1:           New(cfg.IL1),
		dl1:           New(cfg.DL1),
		l2:            New(cfg.L2),
		fills:         make(map[uint64]int64),
		fillsPrev:     make(map[uint64]int64),
		instFills:     make(map[uint64]int64),
		instFillsPrev: make(map[uint64]int64),
		epochLen:      epoch,
		nextSwap:      epoch,
	}
}

// rotate retires the previous epoch's fill maps once every live entry
// in them must have completed.
func (h *Hierarchy) rotate(now int64) {
	if now < h.nextSwap {
		return
	}
	h.fills, h.fillsPrev = h.fillsPrev, h.fills
	clear(h.fills)
	h.instFills, h.instFillsPrev = h.instFillsPrev, h.instFills
	clear(h.instFills)
	h.nextSwap = now + h.epochLen
}

// inFlight looks up la in the current-then-previous epoch maps and
// reports the completion cycle of a still-outstanding fill.
func inFlight(cur, prev map[uint64]int64, la uint64, now int64) (int64, bool) {
	if ready, ok := cur[la]; ok && ready > now {
		return ready, true
	}
	if ready, ok := prev[la]; ok && ready > now {
		return ready, true
	}
	return 0, false
}

// Data performs a data access (load or store) at the given cycle and
// returns the latency and satisfying level. Write misses allocate, like
// SimpleScalar's default write-allocate policy.
func (h *Hierarchy) Data(addr uint64, now int64) Result {
	h.rotate(now)
	la := h.dl1.LineAddr(addr)
	if ready, ok := inFlight(h.fills, h.fillsPrev, la, now); ok {
		// Secondary access to an in-flight line: waits for the fill.
		return Result{Latency: int(ready-now) + h.cfg.DL1.Latency, Level: LevelInFlight}
	}
	if h.dl1.Access(addr) {
		return Result{Latency: h.cfg.DL1.Latency, Level: LevelL1}
	}
	var lat int
	var lvl Level
	if h.l2.Access(addr) {
		lat = h.cfg.DL1.Latency + h.cfg.L2.Latency
		lvl = LevelL2
	} else {
		lat = h.cfg.DL1.Latency + h.cfg.L2.Latency + h.cfg.MemLatency
		lvl = LevelMemory
	}
	h.fills[la] = now + int64(lat)
	return Result{Latency: lat, Level: lvl}
}

// Prefetch starts a data-side fill for the line containing addr, as a
// demand miss would, and returns true when a new fill was started.
// Lines already resident or in flight are left undisturbed (the probe
// does not touch LRU state). The fill shares the demand path's MSHR
// tracking, so a demand access arriving before it completes observes
// the residual latency as LevelInFlight — a late prefetch is still
// partially useful.
func (h *Hierarchy) Prefetch(addr uint64, now int64) bool {
	h.rotate(now)
	la := h.dl1.LineAddr(addr)
	if _, ok := inFlight(h.fills, h.fillsPrev, la, now); ok {
		return false
	}
	if h.dl1.Probe(addr) {
		return false
	}
	var lat int
	if h.l2.Access(addr) {
		lat = h.cfg.DL1.Latency + h.cfg.L2.Latency
	} else {
		lat = h.cfg.DL1.Latency + h.cfg.L2.Latency + h.cfg.MemLatency
	}
	h.dl1.Access(addr) // install the line, evicting via true LRU
	h.fills[la] = now + int64(lat)
	return true
}

// Inst performs an instruction fetch access for the line containing pc.
func (h *Hierarchy) Inst(pc uint64, now int64) Result {
	h.rotate(now)
	la := h.il1.LineAddr(pc)
	if ready, ok := inFlight(h.instFills, h.instFillsPrev, la, now); ok {
		return Result{Latency: int(ready-now) + h.cfg.IL1.Latency, Level: LevelInFlight}
	}
	if h.il1.Access(pc) {
		return Result{Latency: h.cfg.IL1.Latency, Level: LevelL1}
	}
	var lat int
	var lvl Level
	if h.l2.Access(pc) {
		lat = h.cfg.IL1.Latency + h.cfg.L2.Latency
		lvl = LevelL2
	} else {
		lat = h.cfg.IL1.Latency + h.cfg.L2.Latency + h.cfg.MemLatency
		lvl = LevelMemory
	}
	h.instFills[la] = now + int64(lat)
	return Result{Latency: lat, Level: lvl}
}

// DL1 exposes the data cache (stats, probing in tests).
func (h *Hierarchy) DL1() *Cache { return h.dl1 }

// IL1 exposes the instruction cache.
func (h *Hierarchy) IL1() *Cache { return h.il1 }

// L2 exposes the unified second level.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// HitLatency returns the scheduled (assumed) load-to-use latency, i.e.
// the DL1 hit latency the scheduler speculates with.
func (h *Hierarchy) HitLatency() int { return h.cfg.DL1.Latency }

// CheckInvariants verifies the epoch-rotation bookkeeping at the given
// cycle: the next rotation is never scheduled further out than one
// epoch, and no in-flight fill completes later than a worst-case miss
// path allows. The validation layer (internal/check via core's memory
// monitor) calls this periodically on checked runs.
func (h *Hierarchy) CheckInvariants(now int64) error {
	if h.nextSwap > now+h.epochLen {
		return fmt.Errorf("cache: next epoch swap %d more than one epoch (%d) past cycle %d",
			h.nextSwap, h.epochLen, now)
	}
	dataWorst := now + int64(h.cfg.DL1.Latency+h.cfg.L2.Latency+h.cfg.MemLatency)
	for _, fills := range []map[uint64]int64{h.fills, h.fillsPrev} {
		for la, ready := range fills {
			if ready > dataWorst {
				return fmt.Errorf("cache: data fill for line %#x completes at %d, past the worst-case bound %d",
					la, ready, dataWorst)
			}
		}
	}
	instWorst := now + int64(h.cfg.IL1.Latency+h.cfg.L2.Latency+h.cfg.MemLatency)
	for _, fills := range []map[uint64]int64{h.instFills, h.instFillsPrev} {
		for la, ready := range fills {
			if ready > instWorst {
				return fmt.Errorf("cache: inst fill for line %#x completes at %d, past the worst-case bound %d",
					la, ready, instWorst)
			}
		}
	}
	return nil
}

// Reset clears all levels and in-flight state, keeping allocations.
func (h *Hierarchy) Reset() {
	h.il1.Reset()
	h.dl1.Reset()
	h.l2.Reset()
	clear(h.fills)
	clear(h.fillsPrev)
	clear(h.instFills)
	clear(h.instFillsPrev)
	h.nextSwap = h.epochLen
}
