// Package api is version 1 of the simulation service's public wire
// surface: the JSON request, response and event types exchanged
// between a simd server, its HTTP clients, and every command that can
// run remotely. One schema is shared by all of them — the server
// marshals these types, the client unmarshals the same types, and the
// commands' -json output is these types verbatim — so there is exactly
// one place the wire format can change, and the golden tests in this
// package pin it.
//
// Compatibility rules for v1: field names and meanings never change;
// new optional fields may be added; enumerations (scheme names, check
// levels, finding kinds) travel as strings so they survive internal
// renumbering. A breaking change means a new version prefix, not an
// edit here.
//
// The package also defines the service's content addressing: Key maps
// a normalized spec plus its run lengths to the SHA-256 name under
// which the result is stored and served (see key.go).
package api

import (
	"repro/internal/core"
	"repro/internal/smpred"
)

const (
	// Version is the wire-format version this package defines.
	Version = "v1"
	// PathPrefix is the URL prefix every v1 endpoint lives under.
	PathPrefix = "/v1"
)

// Spec is the wire form of one simulation request: a benchmark, a
// machine width, a replay scheme by registered name, and optional
// configuration overrides. It mirrors sim.Spec field for field but
// carries enumerations as strings.
type Spec struct {
	Bench  string     `json:"bench"`
	Wide8  bool       `json:"wide8,omitempty"`
	Scheme string     `json:"scheme"`
	Over   *Overrides `json:"over,omitempty"`
}

// Overrides are the optional deviations from the Table 3 machine,
// mirroring sim.Overrides. Zero-valued fields keep the default for the
// selected width.
type Overrides struct {
	Tokens      int `json:"tokens,omitempty"`
	SchedToExec int `json:"schedToExec,omitempty"`
	IQSize      int `json:"iq,omitempty"`
	ROBSize     int `json:"rob,omitempty"`
	LSQSize     int `json:"lsq,omitempty"`
	PredEntries int `json:"predEntries,omitempty"`
	// Bpred and Prefetch select frontend kinds by registered name
	// ("tage", "stride"); empty keeps the paper's default frontend.
	Bpred           string `json:"bpred,omitempty"`
	Prefetch        string `json:"prefetch,omitempty"`
	ReplayQueue     bool   `json:"rq,omitempty"`
	ValuePrediction bool   `json:"vp,omitempty"`
	// Check is the invariant-monitoring level by name ("off", "cheap",
	// "full"); empty means off.
	Check string `json:"check,omitempty"`
}

// RunRequest submits one spec (POST /v1/run). Zero run-length fields
// inherit the server's configured lengths; non-zero fields must match
// them exactly — a simd server is pinned to one (Insts, Warmup, Seed)
// tuple so its cache stays coherent, and it rejects mismatches with
// 400 rather than silently running something else.
type RunRequest struct {
	Spec   Spec  `json:"spec"`
	Insts  int64 `json:"insts,omitempty"`
	Warmup int64 `json:"warmup,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// SweepRequest submits a whole matrix (POST /v1/sweep). Run-length
// semantics match RunRequest.
type SweepRequest struct {
	Specs  []Spec `json:"specs"`
	Insts  int64  `json:"insts,omitempty"`
	Warmup int64  `json:"warmup,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// Result is one completed simulation: the normalized spec that ran,
// the run lengths it ran under, its content-address key, and the full
// measurements. The server stores the marshaled bytes of this type
// content-addressed by Key and replays them verbatim, so two queries
// for the same normalized spec receive byte-identical bodies.
type Result struct {
	API    string                `json:"api"`
	Key    string                `json:"key"`
	Spec   Spec                  `json:"spec"`
	Insts  int64                 `json:"insts"`
	Warmup int64                 `json:"warmup"`
	Seed   int64                 `json:"seed"`
	Stats  *core.Stats           `json:"stats"`
	Meter  *smpred.CoverageMeter `json:"meter"`
}

// SweepError localizes one failed spec inside a sweep.
type SweepError struct {
	// Index is the position in SweepRequest.Specs.
	Index int    `json:"index"`
	Spec  Spec   `json:"spec"`
	Error string `json:"error"`
}

// SweepResponse answers a sweep: Results aligns one-to-one with the
// request's Specs (failed positions are null), and Errors carries the
// per-spec failures — a 167/168 sweep is a near-success, not a 500.
type SweepResponse struct {
	API     string       `json:"api"`
	Results []*Result    `json:"results"`
	Errors  []SweepError `json:"errors,omitempty"`
}

// Progress is one observation of a server's counters, streamed over
// SSE (GET /v1/progress) and embedded in Info. Request-level counters
// (Queued..EngineRuns) come from the service layer; simulation-level
// counters (Resumed..Insts) from the batch engine underneath. Every
// field is always present on the wire so consumers never distinguish
// "zero" from "omitted".
//
// The field set and order are pinned by the golden wire tests AND by
// AppendProgress, the allocation-free serializer the SSE hot path
// uses: the two must stay in lockstep (TestAppendProgressMatchesJSON).
type Progress struct {
	// Queued counts specs accepted (run and sweep submissions both).
	Queued int64 `json:"queued"`
	// Running counts specs currently executing a simulation.
	Running int64 `json:"running"`
	// Done counts specs answered successfully, from whatever tier.
	Done int64 `json:"done"`
	// Failed counts specs whose execution errored.
	Failed int64 `json:"failed"`
	// CacheHits counts specs answered from the content-addressed store.
	CacheHits int64 `json:"cacheHits"`
	// Collapsed counts duplicate in-flight submissions folded into a
	// leader's run by the service-level singleflight.
	Collapsed int64 `json:"collapsed"`
	// EngineRuns counts specs that reached the engine: the work the
	// cache tiers failed to absorb.
	EngineRuns int64 `json:"engineRuns"`
	// Resumed and Retried mirror the engine's journal-replay and
	// fresh-machine-retry counters.
	Resumed int64 `json:"resumed"`
	Retried int64 `json:"retried"`
	// Warmed is always 0; kept for v1 wire stability.
	Warmed int64 `json:"warmed"`
	// Insts is the total retired instructions simulated.
	Insts int64 `json:"insts"`
	// ElapsedMS is wall time since the server started, in milliseconds.
	ElapsedMS int64 `json:"elapsedMs"`
}

// Info describes a server (GET /v1/info): its pinned run lengths, the
// registries it serves, and a progress snapshot.
type Info struct {
	API    string `json:"api"`
	Insts  int64  `json:"insts"`
	Warmup int64  `json:"warmup"`
	Seed   int64  `json:"seed"`
	// Shards is always 0; kept for v1 wire stability.
	Shards  int      `json:"shards"`
	Schemes []string `json:"schemes"`
	Benches []string `json:"benches"`
	// Bpreds and Prefetchers list the selectable frontend kinds (new in
	// the frontend-diversity revision; absent on older servers).
	Bpreds      []string `json:"bpreds,omitempty"`
	Prefetchers []string `json:"prefetchers,omitempty"`
	// StoreEntries is the number of results in the content-addressed
	// store.
	StoreEntries int      `json:"storeEntries"`
	Progress     Progress `json:"progress"`
}

// Error is the envelope every non-2xx response carries.
type Error struct {
	Error string `json:"error"`
}

// Finding is the wire form of one validation failure (cmd/validate
// -json): which run, what kind of disagreement, and the rendered
// monitor violations when there are any.
type Finding struct {
	Spec Spec  `json:"spec"`
	Seed int64 `json:"seed"`
	// Kind is "run-error", "monitor", "oracle-hash", "cross-level" or
	// "stats".
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
	// Violations are the monitor violations rendered as strings, with
	// their stream cursors, when Kind is "monitor".
	Violations []string `json:"violations,omitempty"`
	// Stream is the recorded .evs artifact path, when one was requested.
	Stream string `json:"stream,omitempty"`
}

// ValidateReport is the wire form of a validation sweep's outcome.
type ValidateReport struct {
	API      string    `json:"api"`
	Runs     int       `json:"runs"`
	Findings []Finding `json:"findings"`
}
