// Package lint is repolint's analysis framework: a stdlib-only static
// checker (go/parser + go/ast + go/types, no golang.org/x/tools) that
// proves the repository's structural invariants at compile time — the
// determinism contract of the simulator packages, the allocation-free
// hot path, replay-policy and checker registry conformance, stats
// completeness, context hygiene in the batch engine, a frozen wire
// API, and concurrency discipline in the threaded packages.
//
// The framework loads every requested package from source, type-checks
// it against the module, and hands the typed syntax to a fixed suite
// of analyzers (see Default). Findings carry a rule name and a precise
// position; a finding can be waived in place with an allow pragma:
//
//	//lint:allow(<rule>): <reason>
//
// (the older `//lint:allow <rule> <reason>` spelling is equivalent) on
// the offending line or the line above it. Every waiver must give a
// reason — a bare pragma is itself a finding — and the full inventory
// is printable with `repolint -waivers`. The determinism, escape and
// wireapi rules accept no pragmas at all — those invariants are
// load-bearing for the reproduction (bit-identical reruns, a frozen
// wire format, zero-allocation cycle loop), so a waiver is itself
// reported as a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	// Rule is the analyzer rule that fired (determinism, escape,
	// registry, stats, context, pragma).
	Rule string `json:"rule"`
	// File, Line and Col locate the violation. File is relative to the
	// module root when possible.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Msg explains the violation and, where one exists, the sanctioned
	// alternative.
	Msg string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
}

// Analyzer is one invariant checker. Check inspects the loaded unit
// and reports findings through u.Report; the error return is for
// infrastructure failures (a build that would not run, an unreadable
// tree), never for findings.
type Analyzer interface {
	// Name is the rule name findings are filed under and pragmas refer
	// to.
	Name() string
	// Check runs the analyzer over the unit.
	Check(u *Unit) error
}

// Unit is one loaded, type-checked view of the module, shared by every
// analyzer in a run.
type Unit struct {
	// Root is the module root directory; Module its import path.
	Root   string
	Module string
	// Fset positions every file in Pkgs.
	Fset *token.FileSet
	// Pkgs holds the loaded packages in deterministic (sorted import
	// path) order.
	Pkgs []*Package

	// allow maps file -> line -> rules waived there (built from the
	// //lint:allow pragmas of every loaded file).
	allow    map[string]map[int][]string
	waivers  []Waiver
	findings []Finding
}

// Waiver is one well-formed allow pragma: where it is, which rule it
// waives, and the reason its author gave. The repo-wide inventory
// (`repolint -waivers`) is built from these.
type Waiver struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Rule   string `json:"rule"`
	Reason string `json:"reason"`
}

func (w Waiver) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", w.File, w.Line, w.Rule, w.Reason)
}

// Pkg returns the loaded package with the given import path, or nil.
func (u *Unit) Pkg(path string) *Package {
	for _, p := range u.Pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// Report files a finding for rule at pos unless an allow pragma on the
// same or preceding line waives it. The pragma rule itself cannot be
// waived (a pragma complaining about pragmas must surface).
func (u *Unit) Report(rule string, pos token.Pos, format string, args ...any) {
	p := u.Fset.Position(pos)
	file := u.relFile(p.Filename)
	if rule != rulePragma {
		for _, r := range u.allow[p.Filename][p.Line] {
			if r == rule {
				return
			}
		}
		for _, r := range u.allow[p.Filename][p.Line-1] {
			if r == rule {
				return
			}
		}
	}
	u.findings = append(u.findings, Finding{
		Rule: rule, File: file, Line: p.Line, Col: p.Column,
		Msg: fmt.Sprintf(format, args...),
	})
}

// relFile rewrites an absolute filename relative to the module root
// for stable, machine-independent finding output.
func (u *Unit) relFile(name string) string {
	if rel, ok := strings.CutPrefix(name, u.Root+"/"); ok {
		return rel
	}
	return name
}

// rulePragma files findings about the pragmas themselves: malformed
// spellings and waivers of the unwaivable rules.
const rulePragma = "pragma"

// noPragmaRules are the rules whose findings cannot be allow-listed:
// the determinism contract, the zero-allocation hot path and the
// frozen wire API are the repository's spine, and a local waiver would
// quietly void the global guarantee they exist to give.
var noPragmaRules = map[string]bool{
	"determinism": true,
	"escape":      true,
	"wireapi":     true,
}

// collectPragmas scans every loaded file for //lint:allow comments,
// builds the unit's allow map, and reports malformed or forbidden
// pragmas.
func (u *Unit) collectPragmas() {
	u.allow = make(map[string]map[int][]string)
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					u.collectPragma(c)
				}
			}
		}
	}
}

func (u *Unit) collectPragma(c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//lint:allow")
	if !ok {
		return
	}
	var rule, reason string
	if rest, paren := strings.CutPrefix(text, "("); paren {
		// //lint:allow(<rule>): <reason>
		name, tail, closed := strings.Cut(rest, ")")
		if !closed || name == "" || strings.ContainsAny(name, " \t") {
			u.Report(rulePragma, c.Pos(), "allow pragma names no rule; want //lint:allow <rule> <reason>")
			return
		}
		rule = name
		reason = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(tail), ":"))
	} else {
		// //lint:allow <rule> <reason>
		fields := strings.Fields(text)
		if len(fields) == 0 {
			u.Report(rulePragma, c.Pos(), "allow pragma names no rule; want //lint:allow <rule> <reason>")
			return
		}
		rule = fields[0]
		reason = strings.Join(fields[1:], " ")
	}
	if reason == "" {
		u.Report(rulePragma, c.Pos(), "allow pragma for %q gives no reason; a waiver must say why", rule)
		return
	}
	if noPragmaRules[rule] {
		u.Report(rulePragma, c.Pos(),
			"rule %q cannot be waived: the %s invariant is global, fix the code instead", rule, rule)
		return
	}
	p := u.Fset.Position(c.Pos())
	u.waivers = append(u.waivers, Waiver{
		File: u.relFile(p.Filename), Line: p.Line, Rule: rule, Reason: reason,
	})
	byLine := u.allow[p.Filename]
	if byLine == nil {
		byLine = make(map[int][]string)
		u.allow[p.Filename] = byLine
	}
	byLine[p.Line] = append(byLine[p.Line], rule)
}

// Run loads the packages matched by patterns under the module rooted
// at (or above) dir, runs the analyzers, and returns the sorted
// findings. Analyzer errors (not findings) abort the run.
func Run(dir string, patterns []string, analyzers []Analyzer) ([]Finding, error) {
	u, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	for _, a := range analyzers {
		if err := a.Check(u); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name(), err)
		}
	}
	return u.Findings(), nil
}

// Waivers loads the packages matched by patterns and returns every
// well-formed allow pragma in them, sorted by position — the repo-wide
// waiver inventory `repolint -waivers` publishes as a CI artifact.
// Malformed or reasonless pragmas are not waivers; they surface as
// findings on a normal run.
func Waivers(dir string, patterns []string) ([]Waiver, error) {
	u, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	ws := append([]Waiver(nil), u.waivers...)
	sort.Slice(ws, func(i, j int) bool {
		a, b := ws[i], ws[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Rule < b.Rule
	})
	return ws, nil
}

// Findings returns the findings reported so far, sorted by position
// then rule.
func (u *Unit) Findings() []Finding {
	fs := append([]Finding(nil), u.findings...)
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return fs
}
