// Package prefetch implements a PC-indexed delta-pattern stride
// prefetcher feeding the data side of the internal/cache hierarchy.
// The paper's machine has no prefetching; this is frontier equipment
// for the EXPERIMENTS.md question of whether the replay-scheme
// conclusions survive a frontend that converts cache misses into hits
// or in-flight residuals.
//
// The design mirrors internal/smpred's tagged direct-mapped table
// idiom: each entry tracks one load PC's last address, current stride
// and a 2-bit confidence. When two consecutive deltas agree the
// confidence rises; at or above the configured threshold the
// prefetcher requests the line Distance strides ahead. Outcome
// accounting (issued/useful/late) lives on core.Stats so warmup
// subtraction and the stats-completeness lint see it; this package
// only reports per-event facts to the core.
package prefetch

import (
	"fmt"
	"strings"
)

// Kind selects the prefetcher organisation. The zero value is off, so
// zero-valued Configs keep the paper's prefetch-free machine.
type Kind int

const (
	// KindOff disables prefetching.
	KindOff Kind = iota
	// KindStride is the PC-indexed delta-pattern stride prefetcher.
	KindStride
)

// kindNames is the canonical flag spelling per kind, indexed by Kind.
var kindNames = []string{"off", "stride"}

// String returns the flag spelling of the kind.
func (k Kind) String() string {
	if int(k) < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindNames lists the parseable prefetcher kinds in declaration order.
func KindNames() []string {
	out := make([]string, len(kindNames))
	copy(out, kindNames)
	return out
}

// ParseKind resolves a flag spelling (case-insensitive) to a Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if strings.EqualFold(s, n) {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown prefetcher %q (have %s)",
		s, strings.Join(kindNames, ", "))
}

// MaxConfidence is the saturation value of the 2-bit stride counters.
const MaxConfidence = 3

// Config sizes the prefetcher. All fields are plain ints so the struct
// stays comparable: pooled machines test substrate reuse with ==.
type Config struct {
	// Kind selects the organisation; KindOff builds no prefetcher.
	Kind Kind
	// Entries is the stride-table entry count; a power of two.
	Entries int
	// TagBits is how many PC bits above the index are kept as a tag.
	TagBits int
	// MinConfidence is the confidence (0..3) at which the prefetcher
	// fires. A value above MaxConfidence can never be reached, which
	// makes the prefetcher provably inert — the zero-coverage
	// configuration the metamorphic suite pins against prefetch-off.
	MinConfidence int
	// Distance is how many strides ahead of the demand address the
	// prefetch lands.
	Distance int
	// MarkEntries sizes the direct-mapped table of recently prefetched
	// line addresses used for useful/late accounting; a power of two.
	MarkEntries int
}

// DefaultStride returns the stride prefetcher's default geometry:
// a 256-entry 16-bit-tagged stride table firing at confidence 2,
// two strides ahead, with 512 accounting marks.
func DefaultStride() Config {
	return Config{
		Kind:          KindStride,
		Entries:       256,
		TagBits:       16,
		MinConfidence: 2,
		Distance:      2,
		MarkEntries:   512,
	}
}

// entry is one stride-table slot.
type entry struct {
	tag    uint64
	valid  bool
	last   uint64
	stride int64
	conf   uint8
}

// mark is one accounting slot: a line address the prefetcher brought
// in that no demand access has used yet.
type mark struct {
	la    uint64
	valid bool
}

// Prefetcher is the stride table plus outcome marks. The zero value is
// unusable; construct with New.
type Prefetcher struct {
	cfg      Config
	table    []entry
	marks    []mark
	idxMask  uint64
	tagMask  uint64
	markMask uint64

	observes uint64
	fires    uint64
}

// New builds a prefetcher; zero config fields take DefaultStride
// values. It returns nil for KindOff — callers gate on the nil, which
// keeps the off configuration bit-free in the core. It panics if the
// table sizes are not powers of two (static configuration error).
func New(cfg Config) *Prefetcher {
	if cfg.Kind == KindOff {
		return nil
	}
	def := DefaultStride()
	if cfg.Entries == 0 {
		cfg.Entries = def.Entries
	}
	if cfg.TagBits == 0 {
		cfg.TagBits = def.TagBits
	}
	if cfg.MinConfidence == 0 {
		cfg.MinConfidence = def.MinConfidence
	}
	if cfg.Distance == 0 {
		cfg.Distance = def.Distance
	}
	if cfg.MarkEntries == 0 {
		cfg.MarkEntries = def.MarkEntries
	}
	if cfg.Entries&(cfg.Entries-1) != 0 || cfg.MarkEntries&(cfg.MarkEntries-1) != 0 {
		panic("prefetch: table sizes must be powers of two")
	}
	return &Prefetcher{
		cfg:      cfg,
		table:    make([]entry, cfg.Entries),
		marks:    make([]mark, cfg.MarkEntries),
		idxMask:  uint64(cfg.Entries - 1),
		tagMask:  (1 << uint(cfg.TagBits)) - 1,
		markMask: uint64(cfg.MarkEntries - 1),
	}
}

// Config returns the (default-filled) configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

func (p *Prefetcher) slot(pc uint64) (int, uint64) {
	word := pc >> 2
	return int(word & p.idxMask), (word >> uint(len64(p.idxMask))) & p.tagMask
}

func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// Observe trains the stride table with an executed load and reports
// the address to prefetch, if any. A fresh PC allocates (evicting a
// tag-conflicting occupant); two agreeing nonzero deltas in a row earn
// confidence, a disagreeing delta spends it and — once confidence is
// exhausted — retrains the stride. The returned address is always the
// demand address displaced by stride*Distance and never zero or
// wrapped around the address space, so a fired prefetch is always a
// plausible nearby line.
func (p *Prefetcher) Observe(pc, addr uint64) (uint64, bool) {
	p.observes++
	i, tag := p.slot(pc)
	e := &p.table[i]
	if !e.valid || e.tag != tag {
		*e = entry{tag: tag, valid: true, last: addr}
		return 0, false
	}
	d := int64(addr - e.last)
	if d == e.stride && d != 0 {
		if e.conf < MaxConfidence {
			e.conf++
		}
	} else if e.conf > 0 {
		e.conf--
	} else {
		e.stride = d
	}
	e.last = addr
	if int(e.conf) < p.cfg.MinConfidence || e.stride == 0 {
		return 0, false
	}
	pa := addr + uint64(e.stride*int64(p.cfg.Distance))
	if pa == 0 || (e.stride > 0) != (pa > addr) {
		return 0, false // wrapped past either end of the address space
	}
	p.fires++
	return pa, true
}

// MarkIssued records a prefetched line address for useful/late
// accounting, overwriting any conflicting older mark.
func (p *Prefetcher) MarkIssued(la uint64) {
	p.marks[la&p.markMask] = mark{la: la, valid: true}
}

// DemandUse consumes the mark for a demand-accessed line, reporting
// whether that line was brought in by a prefetch not yet used. The
// caller folds the answer (with the access's hierarchy level) into
// useful/late statistics.
func (p *Prefetcher) DemandUse(la uint64) bool {
	m := &p.marks[la&p.markMask]
	if m.valid && m.la == la {
		m.valid = false
		return true
	}
	return false
}

// Stats returns observed-load and fired-prefetch counts.
func (p *Prefetcher) Stats() (observes, fires uint64) {
	return p.observes, p.fires
}

// Reset clears tables and statistics, keeping allocations, so a pooled
// machine can reuse the prefetcher across runs.
func (p *Prefetcher) Reset() {
	for i := range p.table {
		p.table[i] = entry{}
	}
	for i := range p.marks {
		p.marks[i] = mark{}
	}
	p.observes, p.fires = 0, 0
}
