package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workload"
)

// maxSweepSpecs bounds one sweep submission; the full paper matrix is
// 168 runs and the 972-run validation sweep is the largest batch the
// repo itself issues, so the cap is generous without letting a single
// request queue unbounded work.
const maxSweepSpecs = 4096

// Config assembles a Server.
type Config struct {
	// Store is the content-addressed result store. Required.
	Store *Store
	// Engine executes submissions; its effective options pin the
	// server's run lengths (Insts, Warmup, Seed) and normalization
	// defaults. Required.
	Engine *sim.Engine
	// SSEInterval is the progress-event cadence; 0 takes 100ms.
	SSEInterval time.Duration
	// Logf, when set, receives one line per noteworthy server event.
	Logf func(format string, args ...any)
}

// flight is the service-level duplicate-suppression record: the first
// submission of a key becomes the leader and computes; concurrent
// submissions of the same key wait on ready and share the leader's
// bytes. The engine has its own per-Spec singleflight, but collapsing
// here, above it, is what lets followers report X-Cache: collapsed and
// has each key's result marshaled and written to the store once rather
// than once per waiting request.
type flight struct {
	ready chan struct{}
	body  []byte
	err   error
}

// Server is the simd HTTP server: the v1 wire API over a store, a
// singleflight, and the in-process engine. It implements http.Handler.
type Server struct {
	store    *Store
	engine   *sim.Engine
	opts     sim.Options
	sseEvery time.Duration
	logf     func(format string, args ...any)
	start    time.Time
	mux      *http.ServeMux

	mu      sync.Mutex
	flights map[string]*flight

	// Request-level counters; the engine-level ones (resumed, retried,
	// warmed, insts) are read live from the engine.
	queued     atomic.Int64
	running    atomic.Int64
	done       atomic.Int64
	failed     atomic.Int64
	cacheHits  atomic.Int64
	collapsed  atomic.Int64
	engineRuns atomic.Int64

	closeOnce sync.Once
	quit      chan struct{}
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	opts := cfg.Engine.Options()
	if opts.Insts <= 0 || opts.Warmup <= 0 || opts.Seed <= 0 {
		return nil, errors.New("serve: the engine must pin positive Insts, Warmup and Seed")
	}
	s := &Server{
		store:    cfg.Store,
		engine:   cfg.Engine,
		opts:     opts,
		sseEvery: cfg.SSEInterval,
		logf:     cfg.Logf,
		start:    time.Now(),
		mux:      http.NewServeMux(),
		flights:  make(map[string]*flight),
		quit:     make(chan struct{}),
	}
	if s.sseEvery <= 0 {
		s.sseEvery = 100 * time.Millisecond
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.mux.HandleFunc("POST "+api.PathPrefix+"/run", s.handleRun)
	s.mux.HandleFunc("POST "+api.PathPrefix+"/sweep", s.handleSweep)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/result/{key}", s.handleResult)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/progress", s.handleProgress)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/info", s.handleInfo)
	s.mux.HandleFunc("GET "+api.PathPrefix+"/healthz", s.handleHealthz)
	return s, nil
}

// ServeHTTP dispatches to the v1 routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases every blocked handler (singleflight followers, SSE
// streams). Safe to call more than once; in-flight requests
// finish with an error rather than hanging.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// answer resolves one normalized spec through the tiers: store hit,
// singleflight follow, or a leader computation on the engine. tier
// reports which ("hit", "collapsed", "miss") for the X-Cache response
// header and the load test's accounting.
func (s *Server) answer(ctx context.Context, spec sim.Spec) (body []byte, tier string, err error) {
	key := api.Key(spec, s.opts.Insts, s.opts.Warmup, s.opts.Seed)
	for {
		if b, ok := s.store.Get(key); ok {
			s.cacheHits.Add(1)
			return b, "hit", nil
		}
		s.mu.Lock()
		if fl, ok := s.flights[key]; ok {
			s.mu.Unlock()
			s.collapsed.Add(1)
			select {
			case <-fl.ready:
			case <-ctx.Done():
				return nil, "", fmt.Errorf("serve: %s: %w", key, ctx.Err())
			case <-s.quit:
				return nil, "", errors.New("serve: server closed")
			}
			if fl.err == nil {
				return fl.body, "collapsed", nil
			}
			// The leader may have failed only because its own request was
			// canceled; if ours is live, take over the key.
			if isCtxErr(fl.err) && ctx.Err() == nil {
				continue
			}
			return nil, "", fl.err
		}
		fl := &flight{ready: make(chan struct{})}
		s.flights[key] = fl
		s.mu.Unlock()

		b, cerr := s.compute(ctx, key, spec)
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		fl.body, fl.err = b, cerr
		close(fl.ready)
		return b, "miss", cerr
	}
}

// compute executes one key as singleflight leader: simulate on the
// engine, then persist the marshaled result to the store.
func (s *Server) compute(ctx context.Context, key string, spec sim.Spec) ([]byte, error) {
	s.engineRuns.Add(1)
	s.running.Add(1)
	defer s.running.Add(-1)
	out, err := s.engine.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	res := api.FromRunOut(out, s.opts.Insts, s.opts.Warmup, s.opts.Seed)
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", key, err)
	}
	if err := s.store.Put(key, b); err != nil {
		return nil, err
	}
	return b, nil
}

// parseSpec converts and vets one wire spec: scheme and check level
// resolve, and the benchmark exists in the workload registry — so bad
// submissions are a 400 at the front door, not an engine failure.
func (s *Server) parseSpec(ws api.Spec) (sim.Spec, error) {
	spec, err := ws.ToSim()
	if err != nil {
		return sim.Spec{}, err
	}
	if _, err := workload.ByName(spec.Bench); err != nil {
		return sim.Spec{}, err
	}
	return s.opts.NormalizeSpec(spec), nil
}

// checkLengths enforces the server's pinned run lengths: zero-valued
// request fields inherit, non-zero ones must match exactly.
func (s *Server) checkLengths(insts, warmup, seed int64) error {
	if insts != 0 && insts != s.opts.Insts {
		return fmt.Errorf("insts %d does not match this server's %d", insts, s.opts.Insts)
	}
	if warmup != 0 && warmup != s.opts.Warmup {
		return fmt.Errorf("warmup %d does not match this server's %d", warmup, s.opts.Warmup)
	}
	if seed != 0 && seed != s.opts.Seed {
		return fmt.Errorf("seed %d does not match this server's %d", seed, s.opts.Seed)
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding run request: %v", err)
		return
	}
	if err := s.checkLengths(req.Insts, req.Warmup, req.Seed); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := s.parseSpec(req.Spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.queued.Add(1)
	body, tier, err := s.answer(r.Context(), spec)
	if err != nil {
		s.failed.Add(1)
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.done.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", tier)
	w.Write(body)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding sweep request: %v", err)
		return
	}
	if err := s.checkLengths(req.Insts, req.Warmup, req.Seed); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Specs) == 0 {
		s.fail(w, http.StatusBadRequest, "empty sweep")
		return
	}
	if len(req.Specs) > maxSweepSpecs {
		s.fail(w, http.StatusBadRequest, "sweep of %d specs exceeds the %d cap", len(req.Specs), maxSweepSpecs)
		return
	}
	resp := api.SweepResponse{API: api.Version, Results: make([]*api.Result, len(req.Specs))}
	var respMu sync.Mutex
	var wg sync.WaitGroup
	for i, ws := range req.Specs {
		spec, err := s.parseSpec(ws)
		if err != nil {
			s.failed.Add(1)
			resp.Errors = append(resp.Errors, api.SweepError{Index: i, Spec: ws, Error: err.Error()})
			continue
		}
		s.queued.Add(1)
		wg.Add(1)
		// One goroutine per spec; actual simulation concurrency is
		// bounded below by the engine's machine pool, and duplicates
		// collapse in the singleflight.
		go func(i int, ws api.Spec, spec sim.Spec) {
			defer wg.Done()
			body, _, err := s.answer(r.Context(), spec)
			if err != nil {
				s.failed.Add(1)
				respMu.Lock()
				resp.Errors = append(resp.Errors, api.SweepError{Index: i, Spec: ws, Error: err.Error()})
				respMu.Unlock()
				return
			}
			s.done.Add(1)
			var res api.Result
			if err := json.Unmarshal(body, &res); err != nil {
				s.failed.Add(1)
				respMu.Lock()
				resp.Errors = append(resp.Errors, api.SweepError{Index: i, Spec: ws, Error: err.Error()})
				respMu.Unlock()
				return
			}
			respMu.Lock()
			resp.Results[i] = &res
			respMu.Unlock()
		}(i, ws, spec)
	}
	wg.Wait()
	sort.Slice(resp.Errors, func(a, b int) bool { return resp.Errors[a].Index < resp.Errors[b].Index })
	s.writeJSON(w, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !api.ValidKey(key) {
		s.fail(w, http.StatusBadRequest, "malformed result key %q", key)
		return
	}
	body, ok := s.store.Get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, "no stored result for %s", key)
		return
	}
	s.cacheHits.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "hit")
	w.Write(body)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	profiles := workload.All()
	benches := make([]string, len(profiles))
	for i, p := range profiles {
		benches[i] = p.Name
	}
	s.writeJSON(w, api.Info{
		API:          api.Version,
		Insts:        s.opts.Insts,
		Warmup:       s.opts.Warmup,
		Seed:         s.opts.Seed,
		Schemes:      core.SchemeNames(),
		Benches:      benches,
		Bpreds:       bpred.KindNames(),
		Prefetchers:  prefetch.KindNames(),
		StoreEntries: s.store.Len(),
		Progress:     s.progress(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, `{"status":"ok"}`+"\n")
}

// progress assembles the wire progress snapshot: request-level
// counters from the server, simulation-level ones from the engine.
func (s *Server) progress() api.Progress {
	snap := s.engine.Snapshot()
	return api.Progress{
		Queued:     s.queued.Load(),
		Running:    s.running.Load(),
		Done:       s.done.Load(),
		Failed:     s.failed.Load(),
		CacheHits:  s.cacheHits.Load(),
		Collapsed:  s.collapsed.Load(),
		EngineRuns: s.engineRuns.Load(),
		Resumed:    snap.Resumed,
		Retried:    snap.Retried,
		Insts:      snap.Insts,
		ElapsedMS:  time.Since(s.start).Milliseconds(),
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	s.logf("serve: HTTP %d: %s", status, msg)
	b, err := json.Marshal(api.Error{Error: msg})
	if err != nil {
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}
