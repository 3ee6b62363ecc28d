package lint_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// module resolves the module path once; the analyzers scope their
// rules by it.
func module(t testing.TB) string {
	t.Helper()
	m, err := lint.ModulePath(".")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fixturePkg returns the import path of one seeded-violation fixture.
func fixturePkg(t testing.TB, name string) string {
	return module(t) + "/internal/lint/testdata/src/" + name
}

// runFixture lints one fixture package with the given analyzers.
func runFixture(t *testing.T, name string, analyzers ...lint.Analyzer) []lint.Finding {
	t.Helper()
	findings, err := lint.Run(".", []string{"./internal/lint/testdata/src/" + name}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// golden compares findings against testdata/<name>.golden; -update
// rewrites the file.
func golden(t *testing.T, name string, findings []lint.Finding) {
	t.Helper()
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	got := b.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run %s -update): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// Each analyzer must catch exactly the violations its fixture seeds —
// no more (the sanctioned shapes next to them stay clean), no fewer.

func TestDeterminismFixture(t *testing.T) {
	findings := runFixture(t, "detfix",
		&lint.Determinism{Paths: []string{fixturePkg(t, "detfix")}})
	golden(t, "detfix", findings)
}

func TestEscapeFixture(t *testing.T) {
	findings := runFixture(t, "escapefix", &lint.Escape{
		PkgPath: fixturePkg(t, "escapefix"),
		// The fixture manifest: every function named hot*.
		Manifest: func(u *lint.Unit, p *lint.Package) map[string]bool {
			hot := make(map[string]bool)
			for _, name := range p.Types.Scope().Names() {
				if strings.HasPrefix(name, "hot") {
					hot[name] = true
				}
			}
			return hot
		},
	})
	golden(t, "escapefix", findings)
}

func TestRegistryFixture(t *testing.T) {
	findings := runFixture(t, "regfix",
		&lint.Registry{PkgPath: fixturePkg(t, "regfix")})
	golden(t, "regfix", findings)
}

func TestStatsFixture(t *testing.T) {
	findings := runFixture(t, "statfix", &lint.StatsComplete{
		PkgPath: fixturePkg(t, "statfix"),
		// Gone does not exist on the fixture Stats — required-counter
		// finding; Good does, so it stays silent.
		Required: map[string][]string{"Stats": {"Good", "Gone"}},
	})
	golden(t, "statfix", findings)
}

func TestContextFixture(t *testing.T) {
	findings := runFixture(t, "ctxfix",
		&lint.ContextHygiene{Paths: []string{fixturePkg(t, "ctxfix")}})
	golden(t, "ctxfix", findings)
}

func TestWireAPIFixture(t *testing.T) {
	findings := runFixture(t, "apifix", &lint.WireAPI{
		PkgPath:      fixturePkg(t, "apifix"),
		ManifestPath: "internal/lint/testdata/apifix_manifest.json",
	})
	golden(t, "apifix", findings)
}

func TestConcurrencyFixture(t *testing.T) {
	findings := runFixture(t, "concfix",
		&lint.Concurrency{Paths: []string{fixturePkg(t, "concfix")}})
	golden(t, "concfix", findings)
}

// TestWaiverInventory pins the `repolint -waivers` surface: the
// statfix fixture's one reasoned pragma must come back with its
// position, rule and reason intact.
func TestWaiverInventory(t *testing.T) {
	waivers, err := lint.Waivers(".", []string{"./internal/lint/testdata/src/statfix"})
	if err != nil {
		t.Fatal(err)
	}
	if len(waivers) != 1 {
		t.Fatalf("got %d waivers, want 1: %v", len(waivers), waivers)
	}
	w := waivers[0]
	if w.File != "internal/lint/testdata/src/statfix/statfix.go" || w.Rule != "stats" {
		t.Errorf("waiver = %+v", w)
	}
	if w.Reason != "fixture high-water mark, deliberately not subtracted" {
		t.Errorf("reason = %q", w.Reason)
	}
	if w.Line == 0 {
		t.Errorf("waiver has no line: %+v", w)
	}
}

// TestJSONSchema pins the machine-readable output CI consumes: the
// JSON encodings of a Finding and a Waiver are part of repolint's
// interface, so a renamed key must show up as a golden diff here, not
// as a broken pipeline.
func TestJSONSchema(t *testing.T) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]lint.Finding{{
		Rule: "snapshot", File: "internal/core/snapshot.go", Line: 42, Col: 7,
		Msg: "example finding",
	}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode([]lint.Waiver{{
		File: "internal/sim/engine.go", Line: 7, Rule: "context",
		Reason: "example waiver",
	}}); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	path := filepath.Join("testdata", "json_schema.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test -run %s -update): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Errorf("JSON schema diverges from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestRepoIsClean is the meta-test: the live tree must pass the full
// production suite with zero findings — and therefore with zero
// pragmas on the determinism, escape and wireapi rules, since those
// waivers are themselves findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint is slow under -short")
	}
	findings, err := lint.Run(".", []string{"./..."}, lint.Default(module(t)))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// BenchmarkRepolint times one full-suite run over the module; CI
// compares it against testdata/bench_baseline.txt via benchguard so
// the lint gate's wall-clock cost stays visible and bounded.
func BenchmarkRepolint(b *testing.B) {
	mod := module(b)
	for i := 0; i < b.N; i++ {
		findings, err := lint.Run(".", []string{"./..."}, lint.Default(mod))
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) != 0 {
			b.Fatalf("tree not clean: %v", findings[0])
		}
	}
}
