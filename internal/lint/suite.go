package lint

// Default is repolint's production analyzer suite for the module —
// seven rules: determinism over the simulator packages, the hot-path
// escape gate on the core (and the per-event paths of the event
// stream, the wire API and the service, plus the per-branch and
// per-load paths of the pluggable frontends), registry conformance,
// stats completeness, context hygiene on the batch engine and the
// service layer, wire-API stability against the committed manifest,
// and concurrency discipline over the threaded packages.
func Default(module string) []Analyzer {
	return []Analyzer{
		DefaultDeterminism(module),
		DefaultEscape(module),
		EvstreamEscape(module),
		ApiEscape(module),
		ServeEscape(module),
		BpredEscape(module),
		PrefetchEscape(module),
		DefaultRegistry(module),
		DefaultStatsComplete(module),
		DefaultContextHygiene(module),
		DefaultWireAPI(module),
		DefaultConcurrency(module),
	}
}
