package prefetch

import "testing"

// refEntry mirrors one stride-table slot in the reference model.
type refEntry struct {
	tag    uint64
	last   uint64
	stride int64
	conf   int
}

// refModel is a deliberately naive re-implementation of the stride
// prefetcher's specification: maps instead of packed slices, mod/div
// arithmetic instead of masks and shifts. It exists only to disagree
// with the real implementation if either strays from the spec.
type refModel struct {
	cfg   Config
	table map[int]*refEntry
	marks map[int]uint64
}

func newRef(cfg Config) *refModel {
	return &refModel{cfg: cfg, table: map[int]*refEntry{}, marks: map[int]uint64{}}
}

func (r *refModel) observe(pc, addr uint64) (uint64, bool) {
	word := pc >> 2
	idx := int(word % uint64(r.cfg.Entries))
	tag := (word / uint64(r.cfg.Entries)) % (1 << uint(r.cfg.TagBits))
	e, ok := r.table[idx]
	if !ok || e.tag != tag {
		r.table[idx] = &refEntry{tag: tag, last: addr}
		return 0, false
	}
	d := int64(addr - e.last)
	switch {
	case d == e.stride && d != 0:
		if e.conf < MaxConfidence {
			e.conf++
		}
	case e.conf > 0:
		e.conf--
	default:
		e.stride = d
	}
	e.last = addr
	if e.conf < r.cfg.MinConfidence || e.stride == 0 {
		return 0, false
	}
	pa := addr + uint64(e.stride*int64(r.cfg.Distance))
	if pa == 0 || (e.stride > 0) != (pa > addr) {
		return 0, false
	}
	return pa, true
}

func (r *refModel) markIssued(la uint64) {
	r.marks[int(la%uint64(r.cfg.MarkEntries))] = la
}

func (r *refModel) demandUse(la uint64) bool {
	k := int(la % uint64(r.cfg.MarkEntries))
	if got, ok := r.marks[k]; ok && got == la {
		delete(r.marks, k)
		return true
	}
	return false
}

// FuzzStridePrefetcher holds the stride prefetcher to two properties
// over arbitrary operation streams and geometries:
//
//   - every Observe/MarkIssued/DemandUse outcome matches the naive
//     reference model exactly (tables, tags, confidence, wrap checks);
//   - a fired prefetch address is never zero and never the demand
//     address itself — invalid fills cannot reach the cache hierarchy.
func FuzzStridePrefetcher(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1), uint8(1),
		[]byte{0, 1, 8, 0, 1, 8, 0, 1, 8, 0, 1, 8, 2, 1, 8, 3, 1, 8})
	f.Add(uint8(2), uint8(3), uint8(2), uint8(0),
		[]byte{0, 7, 0xf8, 0, 7, 0xf8, 0, 7, 0xf8, 1, 7, 31})
	f.Add(uint8(1), uint8(7), uint8(3), uint8(3),
		[]byte{0, 1, 1, 2, 2, 2, 3, 2, 2, 0, 1, 1, 0, 1, 1, 0, 1, 1})
	f.Fuzz(func(t *testing.T, entLog, tagBits, minConf, dist uint8, data []byte) {
		cfg := Config{
			Kind:          KindStride,
			Entries:       1 << (3 + entLog%4),
			TagBits:       4 + int(tagBits%8),
			MinConfidence: 1 + int(minConf%4), // 4 exercises the inert corner
			Distance:      1 + int(dist%4),
			MarkEntries:   1 << (3 + entLog%3),
		}
		p := New(cfg)
		ref := newRef(cfg)

		nOps := len(data) / 3
		var addrs [256]uint64
		for i := range addrs {
			addrs[i] = uint64(i+1) << 9
		}
		for op := 0; op < nOps; op++ {
			kind, pcSel, dSel := data[op*3]%4, data[op*3+1], int8(data[op*3+2])
			switch kind {
			case 0: // strided access at this PC
				addrs[pcSel] += uint64(int64(dSel)) * 8
				pc, addr := uint64(pcSel)<<2, addrs[pcSel]
				pa, ok := p.Observe(pc, addr)
				ra, rok := ref.observe(pc, addr)
				if pa != ra || ok != rok {
					t.Fatalf("op %d: Observe(%#x, %#x) = (%#x,%v), reference (%#x,%v)",
						op, pc, addr, pa, ok, ra, rok)
				}
				if ok && (pa == 0 || pa == addr) {
					t.Fatalf("op %d: fired invalid prefetch address %#x for demand %#x", op, pa, addr)
				}
			case 1: // absolute jump, breaking the stride
				addrs[pcSel] = uint64(pcSel)<<12 | uint64(dSel)&0xff
			case 2:
				la := uint64(pcSel)<<6 | uint64(uint8(dSel))
				p.MarkIssued(la)
				ref.markIssued(la)
			default:
				la := uint64(pcSel)<<6 | uint64(uint8(dSel))
				got, want := p.DemandUse(la), ref.demandUse(la)
				if got != want {
					t.Fatalf("op %d: DemandUse(%#x) = %v, reference %v", op, la, got, want)
				}
			}
		}
	})
}
