package sim

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/smpred"
)

// journalEntry is one checkpointed run: the spec and run-length
// options that produced it, plus the full results. Scheme is stored by
// registered name so journals survive enum renumbering; run-length
// fields let a resume reject journals recorded under different
// options instead of silently mixing runs of different lengths.
type journalEntry struct {
	Bench  string                `json:"bench"`
	Wide8  bool                  `json:"wide8,omitempty"`
	Scheme string                `json:"scheme"`
	Over   *Overrides            `json:"over,omitempty"`
	Insts  int64                 `json:"insts"`
	Warmup int64                 `json:"warmup"`
	Seed   int64                 `json:"seed"`
	Stats  *core.Stats           `json:"stats"`
	Meter  *smpred.CoverageMeter `json:"meter"`
}

// journal appends completed runs to a JSONL checkpoint file. Every
// line is flushed as it is written, so an interrupted batch loses at
// most the runs still in flight.
type journal struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

// ReadJournal loads the replayable runs a journal holds for the given
// options (normalized-spec keyed), plus the count of lines it skipped.
// The benchmark driver (perfbench) uses it to check every journaled
// run against the oracle; the engine's own resume path goes through
// loadJournal so it can also repair a torn tail.
func ReadJournal(path string, opts Options) (map[Spec]*RunOut, int, error) {
	runs, skipped, _, err := loadJournal(path, opts.withDefaults())
	return runs, skipped, err
}

// loadJournal reads every checkpoint line that matches the engine's
// options and returns the replayable runs keyed by normalized spec.
// Unparseable lines and entries from different options or unknown
// schemes are counted, not fatal: a journal is a cache, and a stale
// entry just means re-simulating.
//
// The returned truncateAt handles the torn tail an interrupted write
// leaves behind: a final line without its newline never finished
// writing (its entry is not trusted, even when the bytes happen to
// parse), and a trailing run of corrupt lines is dead weight that the
// next append would otherwise sit after forever. truncateAt is the
// offset just past the last intact line — the caller truncates the
// file there before reopening it for append, so the journal continues
// from its last good record instead of concatenating new lines onto a
// torn fragment. It is -1 when the file needs no repair. Corrupt lines
// with intact lines after them stay where they are (truncating would
// discard the good entries behind them); they are merely counted.
func loadJournal(path string, opts Options) (map[Spec]*RunOut, int, int64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, -1, nil
	}
	if err != nil {
		return nil, 0, -1, err
	}
	runs := make(map[Spec]*RunOut)
	skipped := 0
	var goodEnd int64 // offset just past the last intact line
	for start := 0; start < len(data); {
		nl := bytes.IndexByte(data[start:], '\n')
		terminated := nl >= 0
		end := len(data)
		if terminated {
			end = start + nl + 1
		}
		line := data[start:end]
		if terminated {
			line = line[:len(line)-1]
		}
		start = end

		if strings.TrimSpace(string(line)) == "" {
			// Blank lines are harmless; an unterminated one is just
			// trailing whitespace to trim away.
			if terminated {
				goodEnd = int64(end)
			}
			continue
		}
		var je journalEntry
		if err := json.Unmarshal(line, &je); err != nil || !terminated {
			skipped++
			continue
		}
		goodEnd = int64(end)
		scheme, err := core.ParseScheme(je.Scheme)
		if err != nil || je.Stats == nil || je.Meter == nil ||
			je.Insts != opts.Insts || je.Warmup != opts.Warmup || je.Seed != opts.Seed {
			skipped++
			continue
		}
		spec := Spec{Bench: je.Bench, Wide8: je.Wide8, Scheme: scheme}
		if je.Over != nil {
			spec.Over = *je.Over
		}
		spec = spec.Normalize()
		runs[spec] = &RunOut{Spec: spec, Stats: je.Stats, Meter: je.Meter}
	}
	truncateAt := int64(-1)
	if goodEnd < int64(len(data)) {
		truncateAt = goodEnd
	}
	return runs, skipped, truncateAt, nil
}

// openJournal opens the checkpoint file for appending, creating it if
// needed.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{f: f, w: bufio.NewWriter(f)}, nil
}

// append checkpoints one completed run.
func (j *journal) append(opts Options, out *RunOut) error {
	je := journalEntry{
		Bench:  out.Spec.Bench,
		Wide8:  out.Spec.Wide8,
		Scheme: out.Spec.Scheme.String(),
		Insts:  opts.Insts,
		Warmup: opts.Warmup,
		Seed:   opts.Seed,
		Stats:  out.Stats,
		Meter:  out.Meter,
	}
	if !out.Spec.Over.isZero() {
		over := out.Spec.Over
		je.Over = &over
	}
	line, err := json.Marshal(je)
	if err != nil {
		return fmt.Errorf("sim: journal encode %s: %w", out.Spec, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("sim: journal write: %w", err)
	}
	if err := j.w.WriteByte('\n'); err != nil {
		return fmt.Errorf("sim: journal write: %w", err)
	}
	// Flush per run: a checkpoint that only hits the disk on Close
	// would not survive the interrupt it exists for.
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("sim: journal flush: %w", err)
	}
	return nil
}

// close flushes and closes the checkpoint file.
func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
