package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The escape gate is only as strong as its manifest: this test pins
// the required coverage — the cycle loop, every one of the nine policy
// hooks on at least one concrete policy, and both monitor levels'
// event taps — and pins the sanctioned exclusions (reset/finish, the
// violation path) so neither side drifts silently.
func TestCoreManifestCoverage(t *testing.T) {
	u, err := Load(".", []string{"./internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	p := u.Pkg(u.Module + "/internal/core")
	if p == nil {
		t.Fatal("core package not loaded")
	}
	manifest := coreManifest(u, p)
	if f := u.Findings(); len(f) != 0 {
		t.Fatalf("manifest has stale entries: %v", f[0])
	}

	// The cycle loop and the stages it drives.
	for _, key := range []string{
		"Machine.step", "Machine.runEvents", "Machine.fetch",
		"Machine.dispatch", "Machine.selectAndIssue", "Machine.handleExec",
		"Machine.handleComplete", "Machine.retire", "Machine.emit",
		"Machine.emitFetch",
	} {
		if !manifest[key] {
			t.Errorf("manifest misses cycle-loop function %s", key)
		}
	}

	// All nine policy hooks, each on at least one implementation.
	hooks := []string{
		"onRename", "wakeupEligible", "onIssue", "onKill", "onSquash",
		"onVerify", "onStaleOperand", "onRetire", "onFlush",
	}
	for _, hook := range hooks {
		found := false
		for key := range manifest {
			if strings.HasSuffix(key, "."+hook) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("manifest covers no implementation of policy hook %s", hook)
		}
	}

	// The structure-of-arrays scheduler: the word-parallel select scan,
	// the broadcast-compare wakeup, the window bitmap primitives, the
	// ring-order bit iterator and the slot-accessor API. A rename or
	// split of any of these must re-enter the manifest or the escape
	// gate quietly stops watching the hottest code in the simulator.
	for _, key := range []string{
		"Machine.issueScan", "Machine.handleBroadcast",
		"Machine.seqAt", "Machine.unissue", "Machine.dataValidFor",
		"Machine.opReady", "Machine.wakeOperand", "Machine.clearOperand",
		"schedWindow.test", "schedWindow.set", "schedWindow.clearBit",
		"schedWindow.refreshReady", "schedWindow.setOp", "schedWindow.clearSlot",
		"ringIter.next", "newRingIter",
	} {
		if !manifest[key] {
			t.Errorf("manifest misses scheduler-window function %s", key)
		}
	}

	// Both monitor levels: the cheap per-event checkers and the full
	// per-cycle sweeps, plus the monitor's own taps.
	for _, key := range []string{
		"monitor.record", "monitor.cycleEnd",
		"retireChecker.event", "occupancyChecker.cycleEnd",
		"closureChecker.event", "memoryChecker.cycleEnd",
		"soaChecker.cycleEnd",
	} {
		if !manifest[key] {
			t.Errorf("manifest misses monitor function %s", key)
		}
	}

	// Sanctioned cold paths stay out: reset/finish may allocate, and
	// failf and traceWindow run only on violations.
	for _, key := range []string{
		"tkselPolicy.reset", "serialPolicy.finish",
		"monitor.failf", "monitor.traceWindow", "Machine.init",
	} {
		if manifest[key] {
			t.Errorf("manifest wrongly includes cold function %s", key)
		}
	}
}

// TestEvstreamManifestCoverage pins the event-stream recorder's escape
// gate: the per-event sink tap and its page flush are watched, while
// setup and the decoder stay cold.
func TestEvstreamManifestCoverage(t *testing.T) {
	u, err := Load(".", []string{"./internal/evstream"})
	if err != nil {
		t.Fatal(err)
	}
	p := u.Pkg(u.Module + "/internal/evstream")
	if p == nil {
		t.Fatal("evstream package not loaded")
	}
	manifest := evstreamManifest(u, p)
	if f := u.Findings(); len(f) != 0 {
		t.Fatalf("manifest has stale entries: %v", f[0])
	}
	for _, key := range []string{"Recorder.Event", "Recorder.flushPage"} {
		if !manifest[key] {
			t.Errorf("manifest misses recording function %s", key)
		}
	}
	for _, key := range []string{
		"NewRecorder", "Recorder.Flush",
		"Reader.Next", "Reader.decode", "Reader.SeekCycle",
	} {
		if manifest[key] {
			t.Errorf("manifest wrongly includes cold function %s", key)
		}
	}
}

// TestFrontendManifestCoverage pins the pluggable-frontend escape
// gates: the predictor's per-branch path (both organisations) and the
// prefetcher's per-load path are watched, while construction and
// Reset stay cold.
func TestFrontendManifestCoverage(t *testing.T) {
	u, err := Load(".", []string{"./internal/bpred", "./internal/prefetch"})
	if err != nil {
		t.Fatal(err)
	}
	bp := u.Pkg(u.Module + "/internal/bpred")
	pf := u.Pkg(u.Module + "/internal/prefetch")
	if bp == nil || pf == nil {
		t.Fatal("frontend packages not loaded")
	}
	bpm := bpredManifest(u, bp)
	pfm := prefetchManifest(u, pf)
	if f := u.Findings(); len(f) != 0 {
		t.Fatalf("manifest has stale entries: %v", f[0])
	}
	for _, key := range []string{
		"Predictor.Lookup", "Predictor.Update",
		"tage.lookup", "tage.update", "tage.allocate",
		"btb.lookup", "btb.insert", "ras.push", "ras.pop",
	} {
		if !bpm[key] {
			t.Errorf("bpred manifest misses per-branch function %s", key)
		}
	}
	for _, key := range []string{"New", "Predictor.Reset"} {
		if bpm[key] {
			t.Errorf("bpred manifest wrongly includes cold function %s", key)
		}
	}
	for _, key := range []string{
		"Prefetcher.Observe", "Prefetcher.MarkIssued", "Prefetcher.DemandUse",
	} {
		if !pfm[key] {
			t.Errorf("prefetch manifest misses per-load function %s", key)
		}
	}
	for _, key := range []string{"New", "Prefetcher.Reset"} {
		if pfm[key] {
			t.Errorf("prefetch manifest wrongly includes cold function %s", key)
		}
	}
}

// TestAPIManifestPinned proves the committed wire manifest matches the
// live API package byte-for-byte: any wire-surface change must
// regenerate it (go run ./cmd/repolint -write-api-manifest) in the
// same change, which is exactly what puts the new surface in front of
// review.
func TestAPIManifestPinned(t *testing.T) {
	u, err := Load(".", []string{"./internal/api"})
	if err != nil {
		t.Fatal(err)
	}
	p := u.Pkg(u.Module + "/internal/api")
	if p == nil {
		t.Fatal("api package not loaded")
	}
	derived, err := json.MarshalIndent(DeriveAPIManifest(p), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	derived = append(derived, '\n')
	committed, err := os.ReadFile(filepath.Join(u.Root, filepath.FromSlash(apiManifestPath)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(derived, committed) {
		t.Errorf("%s is stale; regenerate it with: go run ./cmd/repolint -write-api-manifest", apiManifestPath)
	}
}
