package lint

import (
	"go/ast"
	"go/types"
)

// machineHotMethods are the Machine methods that run inside the warm
// cycle loop: the per-cycle step and its event pump, every pipeline
// stage they drive (fetch through retire), the scheduling and replay
// machinery, and the pooled-storage helpers they lean on. Reset-time
// and reporting code (New, Reset, init, Run, RunContext, Stats,
// describeHead, ...) is deliberately absent — allocation is fine
// there.
var machineHotMethods = []string{
	// Cycle loop and event wheel.
	"step", "runEvents", "schedule", "scheduleNow", "canceled",
	// Window and queue storage (pooled; must stay allocation-free).
	"allocUop", "freeUop", "lookup", "prod", "tailSeq",
	"lsqAt", "lsqPush", "lsqPopFront", "fqAt", "fqPush", "fqPopFront",
	// Front end.
	"fetch", "fetchQCap", "dispatch", "insert", "schedLatOf",
	// Scheduler: the word-parallel select scan and wakeup broadcast,
	// plus the slot-accessor API every stage reads the SoA window
	// through.
	"newBudget", "selectAndIssue", "issueScan", "issue", "squash",
	"forceIQ", "releaseIQ", "reacquireIQ", "handleBroadcast", "handleOpWake",
	"seqAt", "inIQ", "inRQ", "issuedState", "completedState",
	"allReady", "opReady", "producerOf", "opWokenAt",
	"wakeOperand", "clearOperand", "holdUntil", "setHoldUntil",
	"rqRetryAt", "setRQRetryAt", "needsReinsert", "unissue", "dataValidFor",
	// Execute and complete.
	"handleExec", "execLoad", "aliasingStore", "storeDataReadyAt",
	"handleComplete", "rearmOperand", "retire",
	// Replay machinery (shared by the policies).
	"handleKill", "replayLoad", "selectiveKill", "shadowKill",
	"startReinsert", "handleReinsertStart", "reinsertStep",
	"refetch", "valueKill", "handleSerialStep",
	// Observation taps (the monitors and the event sink hang off them).
	"emit", "emitFetch",
}

// hotFreeFuncs and hotAuxMethods extend the manifest beyond Machine:
// free functions and non-Machine receivers on the cycle path.
var (
	hotFreeFuncs  = []string{"newRingIter"}
	hotAuxMethods = map[string][]string{
		"fuBudget": {"take"},
		// The structure-of-arrays window primitives and the ring-order
		// bit iterator run inside the select scan, the wakeup broadcast
		// and every per-slot state transition — the hottest code in the
		// simulator.
		"schedWindow": {"test", "set", "clearBit", "refreshReady",
			"setOp", "clearOp", "clearSlot", "linkConsumer"},
		"ringIter": {"word", "next"},
		// The monitor's per-event and per-cycle taps run on every
		// emitted pipeline event under cheap/full checking; failf and
		// traceWindow are the violation path (cold by definition) and
		// reset/finish bracket the run.
		"monitor": {"record", "cycleEnd"},
	}
	// coldHookMethods are the sanctioned allocation points of the
	// policy and checker interfaces: reset sizes state before the run
	// and finish folds results after it.
	coldHookMethods = map[string]bool{"reset": true, "finish": true}
	// coldIfaceMethods are interface-conformance trivia excluded along
	// with the cold hooks when a policy/checker type's methods are
	// swept into the manifest.
	coldIfaceMethods = map[string]bool{"name": true, "minLevel": true}
)

// coreManifest computes the hot-path function set for the core
// package: the explicit Machine manifest above, plus — derived from
// the type-checked package so new schemes and monitors are covered the
// moment they register — every method of every type implementing
// replayPolicy or checker, except the cold reset/finish hooks. Stale
// explicit entries (a rename the manifest missed) are reported through
// u so the gate cannot silently narrow.
func coreManifest(u *Unit, p *Package) map[string]bool {
	manifest := make(map[string]bool)
	for _, m := range machineHotMethods {
		manifest["Machine."+m] = true
	}
	for _, f := range hotFreeFuncs {
		manifest[f] = true
	}
	for recv, methods := range hotAuxMethods {
		for _, m := range methods {
			manifest[recv+"."+m] = true
		}
	}

	// Sweep the policy and checker implementations. The noop embeddings
	// provide the default hook bodies, so their methods are hot too even
	// though the bare types satisfy neither interface.
	policyIface := ifaceType(p, "replayPolicy")
	checkerIface := ifaceType(p, "checker")
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		ptr := types.NewPointer(named)
		hot := name == "noopPolicy" || name == "noopChecker" ||
			(policyIface != nil && types.Implements(ptr, policyIface)) ||
			(checkerIface != nil && types.Implements(ptr, checkerIface))
		if !hot {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i).Name()
			if coldHookMethods[m] || coldIfaceMethods[m] {
				continue
			}
			manifest[name+"."+m] = true
		}
	}

	// Guard against manifest drift: every explicit entry must name a
	// declared function, or the gate is quietly checking nothing.
	declared := make(map[string]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[funcKey(fd)] = true
			}
		}
	}
	for key := range manifest {
		if !declared[key] {
			u.Report("escape", p.Files[0].Pos(),
				"hot-path manifest entry %q matches no declared function in %s; update internal/lint/hotpath.go", key, p.Path)
		}
	}
	return manifest
}

// evstreamHotFuncs are the event-stream recorder's per-event path: the
// sink tap the machine calls once per pipeline event, and the page
// flush it leans on. Recording must preserve the simulator's
// zero-allocation cycle loop, so these face the same escape gate as
// the core. Setup and the whole decode side are cold.
var evstreamHotFuncs = []string{"Recorder.Event", "Recorder.flushPage"}

// evstreamManifest computes the hot function set for the evstream
// package, with the same drift guard as the core manifest: a stale
// entry is reported, never silently dropped.
func evstreamManifest(u *Unit, p *Package) map[string]bool {
	return listManifest(u, p, evstreamHotFuncs)
}

// EvstreamEscape gates the event-stream recorder.
func EvstreamEscape(module string) *Escape {
	return &Escape{
		PkgPath:  module + "/internal/evstream",
		Manifest: evstreamManifest,
	}
}

// apiHotFuncs is the wire package's per-event serialization path: the
// allocation-free Progress encoder the SSE loop calls once per event
// per subscriber. TestAppendProgressZeroAlloc proves the property
// empirically; the gate proves it from escape analysis and names the
// function when an edit breaks it.
var apiHotFuncs = []string{"AppendProgress"}

func apiManifest(u *Unit, p *Package) map[string]bool {
	return listManifest(u, p, apiHotFuncs)
}

// ApiEscape gates the wire package's SSE serializer.
func ApiEscape(module string) *Escape {
	return &Escape{
		PkgPath:  module + "/internal/api",
		Manifest: apiManifest,
	}
}

// serveHotFuncs is the service's per-event path: the counter snapshot
// every SSE event and every /v1/info response is assembled from. The
// SSE loop reuses one buffer per subscriber, so this snapshot is the
// only code between ticks that could silently start allocating.
var serveHotFuncs = []string{"Server.progress"}

func serveManifest(u *Unit, p *Package) map[string]bool {
	return listManifest(u, p, serveHotFuncs)
}

// ServeEscape gates the service's progress snapshot path.
func ServeEscape(module string) *Escape {
	return &Escape{
		PkgPath:  module + "/internal/serve",
		Manifest: serveManifest,
	}
}

// bpredHotFuncs is the branch predictor's per-branch path: the lookup
// the front end makes for every fetched branch and the update the
// resolve path makes for every executed one, plus every component
// helper they drive — the combined tables, the TAGE tagged tables and
// their hash/allocation machinery, the BTB and the RAS. Construction
// and Reset are cold.
var bpredHotFuncs = []string{
	"Predictor.Lookup", "Predictor.Update",
	"Predictor.PushRAS", "Predictor.PopRAS",
	"Predictor.bimodalIdx", "Predictor.gshareIdx", "Predictor.selectorIdx",
	"counter.taken", "counter.update", "boolBit",
	"tage.lookup", "tage.update", "tage.allocate", "tage.age",
	"tage.index", "tage.tag", "tage.nextRand", "sat3", "weak3",
	"btb.set", "btb.lookup", "btb.insert",
	"ras.push", "ras.pop",
}

func bpredManifest(u *Unit, p *Package) map[string]bool {
	return listManifest(u, p, bpredHotFuncs)
}

// BpredEscape gates the branch predictor's per-branch path.
func BpredEscape(module string) *Escape {
	return &Escape{
		PkgPath:  module + "/internal/bpred",
		Manifest: bpredManifest,
	}
}

// prefetchHotFuncs is the stride prefetcher's per-load path: the core
// calls DemandUse and Observe on every first-issue load execution and
// MarkIssued on every fired prefetch, so all three (and the slot hash
// they share) live inside the simulator's zero-allocation cycle loop.
// Construction and Reset are cold.
var prefetchHotFuncs = []string{
	"Prefetcher.Observe", "Prefetcher.MarkIssued", "Prefetcher.DemandUse",
	"Prefetcher.slot", "len64",
}

func prefetchManifest(u *Unit, p *Package) map[string]bool {
	return listManifest(u, p, prefetchHotFuncs)
}

// PrefetchEscape gates the prefetcher's per-load path.
func PrefetchEscape(module string) *Escape {
	return &Escape{
		PkgPath:  module + "/internal/prefetch",
		Manifest: prefetchManifest,
	}
}

// listManifest turns an explicit function list into a manifest with
// the standard drift guard: an entry naming no declared function is
// reported through u, never silently dropped — the gate must not
// quietly narrow to nothing after a rename.
func listManifest(u *Unit, p *Package, funcs []string) map[string]bool {
	manifest := make(map[string]bool, len(funcs))
	for _, f := range funcs {
		manifest[f] = true
	}
	declared := make(map[string]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[funcKey(fd)] = true
			}
		}
	}
	for key := range manifest {
		if !declared[key] {
			u.Report("escape", p.Files[0].Pos(),
				"hot-path manifest entry %q matches no declared function in %s; update internal/lint/hotpath.go", key, p.Path)
		}
	}
	return manifest
}

// ifaceType resolves a package-scope interface by name.
func ifaceType(p *Package, name string) *types.Interface {
	obj := p.Types.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// funcKey names a declaration the way the manifest does:
// "Recv.method" for methods, "name" for free functions.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
