package bpred

import (
	"bytes"
	"math/rand"
	"testing"
)

// smallTAGE is a compact TAGE geometry so fuzz and metamorphic runs
// exercise capacity pressure (evictions, allocation failures, useful-
// counter decay) without megabyte states.
func smallTAGE() Config {
	return Config{
		Kind:            KindTAGE,
		BimodalEntries:  256,
		GshareEntries:   64,
		SelectorEntries: 64,
		HistoryBits:     8,
		BTBEntries:      64,
		BTBAssoc:        2,
		RASEntries:      8,
		TageTables:      3,
		TageEntries:     64,
		TageTagBits:     7,
		TageMinHist:     2,
		TageMaxHist:     32,
	}
}

// refBimodal is a naive stand-alone re-implementation of the shared
// bimodal base table: 2-bit counters starting weakly-not-taken,
// indexed by word address.
type refBimodal []uint8

func newRefBimodal(entries int) refBimodal {
	r := make(refBimodal, entries)
	for i := range r {
		r[i] = 1
	}
	return r
}

func (r refBimodal) predict(pc uint64) bool {
	return r[(pc>>2)%uint64(len(r))] >= 2
}

func (r refBimodal) train(pc uint64, taken bool) {
	i := (pc >> 2) % uint64(len(r))
	if taken {
		if r[i] < 3 {
			r[i]++
		}
	} else if r[i] > 0 {
		r[i]--
	}
}

// TestTageZeroHistoryDegradesToBimodal is the metamorphic anchor for
// the TAGE organisation: with the -1 sentinel giving every tagged
// table a zero-length history, the tables are inert — they never hit
// and never allocate — so every direction prediction must equal the
// naive bimodal reference exactly, over a stream long enough to cross
// allocation and aging paths many times.
func TestTageZeroHistoryDegradesToBimodal(t *testing.T) {
	cfg := smallTAGE()
	cfg.TageMinHist, cfg.TageMaxHist = -1, -1
	p := New(cfg)
	ref := newRefBimodal(cfg.BimodalEntries)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 50_000; i++ {
		pc := uint64(rng.Intn(512)) << 2
		// A mix of biased and noisy branches so counters move in both
		// directions.
		taken := rng.Intn(4) != 0
		if pc&0x10 != 0 {
			taken = rng.Intn(4) == 0
		}
		pr := p.Lookup(pc)
		if pr.Taken != ref.predict(pc) {
			t.Fatalf("branch %d at %#x: TAGE(hist=0) predicts %v, bimodal reference %v",
				i, pc, pr.Taken, ref.predict(pc))
		}
		p.Update(pc, pr, taken, pc+0x40)
		ref.train(pc, taken)
	}
}

// TestTageBeatsBimodalOnHistoryPattern is the converse sanity check:
// with real history lengths the tagged tables must learn a strict
// period-4 pattern a 2-bit bimodal counter cannot.
func TestTageBeatsBimodalOnHistoryPattern(t *testing.T) {
	p := New(smallTAGE())
	pc := uint64(0x400100)
	pattern := []bool{true, true, false, true}
	for i := 0; i < 2_000; i++ {
		pr := p.Lookup(pc)
		p.Update(pc, pr, pattern[i%len(pattern)], 0x400800)
	}
	mis := 0
	for i := 2_000; i < 2_400; i++ {
		pr := p.Lookup(pc)
		if p.Update(pc, pr, pattern[i%len(pattern)], 0x400800) {
			mis++
		}
	}
	if mis > 20 {
		t.Fatalf("period-4 pattern mispredicted %d/400 after training", mis)
	}
}

// FuzzTAGE holds the TAGE predictor to its reference model over
// arbitrary branch streams and geometries: with zero-length histories
// (the -1 sentinel) every direction prediction matches the naive
// bimodal reference model exactly.
func FuzzTAGE(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), false,
		[]byte{1, 1, 2, 1, 0, 2, 1, 1, 2, 1, 0, 2, 9, 1, 3})
	f.Add(uint8(1), uint8(2), uint8(3), true,
		[]byte{5, 1, 7, 5, 0, 7, 5, 1, 7, 5, 1, 7})
	f.Add(uint8(3), uint8(1), uint8(5), false,
		bytes.Repeat([]byte{2, 1, 4, 2, 0, 4, 3, 1, 5}, 40))
	f.Fuzz(func(t *testing.T, tables, entLog, tagBits uint8, zeroHist bool, data []byte) {
		cfg := smallTAGE()
		cfg.TageTables = 2 + int(tables%4)
		cfg.TageEntries = 1 << (4 + entLog%4)
		cfg.TageTagBits = 5 + int(tagBits%8)
		if zeroHist {
			cfg.TageMinHist, cfg.TageMaxHist = -1, -1
		}
		p := New(cfg)
		ref := newRefBimodal(cfg.BimodalEntries)

		nOps := len(data) / 3
		for op := 0; op < nOps; op++ {
			pcSel, takenRaw, tSel := data[op*3], data[op*3+1], data[op*3+2]
			pc := uint64(pcSel) << 2
			taken := takenRaw&1 == 1
			target := uint64(tSel)<<2 + 4

			pr := p.Lookup(pc)
			if zeroHist && pr.Taken != ref.predict(pc) {
				t.Fatalf("op %d at %#x: TAGE(hist=0) predicts %v, bimodal reference %v",
					op, pc, pr.Taken, ref.predict(pc))
			}
			p.Update(pc, pr, taken, target)
			if zeroHist {
				ref.train(pc, taken)
			}
		}
	})
}
