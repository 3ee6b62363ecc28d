package simflag

import (
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func parse(t *testing.T, register func(*Sim, *flag.FlagSet), args ...string) *Sim {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := New()
	register(s, fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func registerAll(s *Sim, fs *flag.FlagSet) {
	s.RegisterBench(fs)
	s.RegisterMachine(fs)
	s.RegisterLength(fs)
	s.RegisterSeed(fs)
	s.RegisterBatch(fs)
}

func TestValidateAcceptsDefaults(t *testing.T) {
	s := parse(t, registerAll)
	if err := s.Validate(); err != nil {
		t.Fatalf("canonical defaults rejected: %v", err)
	}
}

func TestValidateRejectsBadValues(t *testing.T) {
	cases := [][]string{
		{"-bench", "nope"},
		{"-scheme", "NoSuchScheme"},
		{"-insts", "0"},
		{"-insts", "-5"},
		{"-warmup", "-1"},
		{"-par", "-2"},
	}
	for _, args := range cases {
		s := parse(t, registerAll, args...)
		if err := s.Validate(); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

func TestValidateOnlyChecksRegisteredGroups(t *testing.T) {
	// Only the seed flag is registered, so a bogus bench value sitting
	// in the struct must not be validated.
	s := parse(t, func(s *Sim, fs *flag.FlagSet) { s.RegisterSeed(fs) })
	s.Bench = "nope"
	if err := s.Validate(); err != nil {
		t.Fatalf("unregistered group validated: %v", err)
	}
}

func TestOptionsMapping(t *testing.T) {
	s := parse(t, registerAll,
		"-insts", "1000", "-warmup", "10", "-seed", "9", "-par", "3", "-journal", "j.jsonl")
	got := s.Options()
	if got.Insts != 1000 || got.Warmup != 10 || got.Seed != 9 ||
		got.Parallelism != 3 || got.Journal != "j.jsonl" {
		t.Errorf("Options() = %+v", got)
	}
}

// TestSpecMapping: the machine flags reach the base spec with the
// frontend kinds in canonical lower-case form, and the default kinds
// stay the zero override so flag-free runs keep their cache keys.
func TestSpecMapping(t *testing.T) {
	s := parse(t, registerAll,
		"-bench", "mcf", "-bpred", "TAGE", "-prefetch", "stride", "-wide8", "-scheme", "TkSel")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	want := sim.Spec{Bench: "mcf", Wide8: true, Scheme: core.TkSel,
		Over: sim.Overrides{Bpred: "tage", Prefetch: "stride"}}
	if got := s.Spec(); got != want {
		t.Errorf("Spec() = %+v, want %+v", got, want)
	}

	for _, args := range [][]string{
		nil,
		{"-bpred", "combined", "-prefetch", "off"},
		{"-bpred", "Combined", "-prefetch", "OFF"},
	} {
		s := parse(t, registerAll, args...)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		want := sim.Spec{Bench: "gcc", Scheme: core.PosSel}
		if got := s.Spec(); got != want {
			t.Errorf("args %v: Spec() = %+v, want the zero-override %+v", args, got, want)
		}
	}
}

func TestListSchemes(t *testing.T) {
	s := parse(t, registerAll, "-list-schemes")
	var b strings.Builder
	if !s.HandleListSchemes(&b) {
		t.Fatal("-list-schemes not handled")
	}
	if !strings.Contains(b.String(), "TkSel") || !strings.Contains(b.String(), "PosSel") {
		t.Errorf("scheme list incomplete:\n%s", b.String())
	}
	// A bogus -scheme must not fail validation when listing was asked.
	s.SchemeName = "nope"
	if err := s.Validate(); err != nil {
		t.Errorf("validate failed during -list-schemes: %v", err)
	}
}

func TestStatusRendersAndCloses(t *testing.T) {
	var b strings.Builder
	st := NewStatus(&b, true)
	st.Update(sim.Snapshot{Queued: 4, Done: 1, Running: 2, Insts: 1_000_000, Elapsed: time.Second})
	st.Close()
	out := b.String()
	if !strings.Contains(out, "1/4 done") || !strings.Contains(out, "1.0M uops/s") {
		t.Errorf("status line wrong: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("Close did not terminate the status line")
	}

	var quiet strings.Builder
	off := NewStatus(&quiet, false)
	off.Update(sim.Snapshot{Queued: 1})
	off.Close()
	if quiet.Len() != 0 {
		t.Errorf("disabled renderer wrote %q", quiet.String())
	}
}
