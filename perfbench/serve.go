package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/sim"
)

// serveTkSel are the benches whose TkSel runs join the cold phase, so
// the token layer is exercised here too.
var serveTkSel = []string{"gcc", "mcf", "parser", "vortex"}

// serveLoad drives an in-process simd over loopback with one client in
// a closed loop: each request waits for its reply, as api.Client and
// the -remote commands do.
type serveLoad struct {
	sz     sizes
	opts   sim.Options
	dir    string
	or     *oracles
	cold   []sim.Spec // distinct keys, in the seeded cold-phase order
	bodies [][]byte   // request bytes per key
	warm   []int      // the seeded sequence of keys the warm phase repeats
	client *http.Client

	last string // the latest round's directory (store + journal)
}

func newServeLoad(seed int64, sz sizes, dir string) (*serveLoad, error) {
	s := &serveLoad{sz: sz, dir: dir, opts: sim.Options{
		Insts:       sz.serveInsts,
		Warmup:      sz.serveWarmup,
		Seed:        streamSeed,
		Parallelism: 1,
	}}
	for _, b := range experiments.Benchmarks() {
		s.cold = append(s.cold, sim.Spec{Bench: b, Scheme: core.PosSel})
	}
	for _, b := range serveTkSel {
		s.cold = append(s.cold, sim.Spec{Bench: b, Scheme: core.TkSel})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(s.cold), func(i, j int) { s.cold[i], s.cold[j] = s.cold[j], s.cold[i] })
	for _, sp := range s.cold {
		b, err := json.Marshal(api.RunRequest{Spec: api.FromSimSpec(sp)})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, b)
	}
	s.warm = make([]int, sz.hitsPerUnit)
	for i := range s.warm {
		s.warm[i] = rng.Intn(len(s.cold))
	}
	or, err := newOracles(s.cold, s.opts)
	if err != nil {
		return nil, err
	}
	s.or = or
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	return s, nil
}

func (s *serveLoad) options() sim.Options { return s.opts }
func (s *serveLoad) specs() []sim.Spec    { return append([]sim.Spec(nil), s.cold...) }

// liveServer is an http.Server answering on a loopback port.
type liveServer struct {
	hs   *http.Server
	done chan error
	base string
}

func startHTTP(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &liveServer{hs: &http.Server{Handler: h}, done: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (l *liveServer) stop() error {
	err := l.hs.Close()
	<-l.done
	return err
}

// open builds a simd over the store and journal in dir.
func (s *serveLoad) open(dir string, pl *progressLog, r *recorder) (*serve.Server, *sim.Engine, *liveServer, error) {
	o0 := time.Now()
	store, err := serve.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return nil, nil, nil, err
	}
	r.storeOpens = append(r.storeOpens, ms(time.Since(o0)))
	opts := s.opts
	opts.Journal = filepath.Join(dir, "journal.jsonl")
	if pl != nil {
		opts.OnProgress = pl.observe
	}
	j0 := time.Now()
	eng := sim.NewEngine(opts)
	r.journalLoads = append(r.journalLoads, ms(time.Since(j0)))
	srv, err := serve.New(serve.Config{Store: store, Engine: eng})
	if err != nil {
		eng.Close()
		return nil, nil, nil, err
	}
	live, err := startHTTP(srv)
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, nil, nil, err
	}
	return srv, eng, live, nil
}

func (s *serveLoad) shut(srv *serve.Server, eng *sim.Engine, live *liveServer) error {
	err := live.stop()
	srv.Close()
	s.client.CloseIdleConnections()
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	return err
}

// post sends one run request and returns the body, the X-Cache tier and
// the latency.
func (s *serveLoad) post(base string, body []byte) ([]byte, string, time.Duration, error) {
	t0 := time.Now()
	resp, err := s.client.Post(base+api.PathPrefix+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return nil, "", d, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, "", d, fmt.Errorf("serve: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header.Get("X-Cache"), d, nil
}

// round runs a fresh server through a cold phase (every key once: a
// simulation, an encode and a store write each) and a warm phase (the
// keys repeated: store reads).
func (s *serveLoad) round(r *recorder, pl *progressLog) error {
	dir, err := roundDir(s.dir)
	if err != nil {
		return err
	}
	var (
		srv  *serve.Server
		eng  *sim.Engine
		live *liveServer
	)
	if _, err := r.seg(func() error {
		var err error
		srv, eng, live, err = s.open(dir, pl, r)
		return err
	}); err != nil {
		return err
	}
	coldBodies := make([][]byte, len(s.cold))
	var coldWall float64
	for i, body := range s.bodies {
		var tier string
		d, err := r.seg(func() error {
			var err error
			coldBodies[i], tier, _, err = s.post(live.base, body)
			return err
		})
		if err == nil && tier != "miss" {
			err = fmt.Errorf("serve: cold request answered %q", tier)
		}
		r.check(err)
		r.misses = append(r.misses, d*1e3)
		coldWall += d
	}
	simulated := int64(eng.Cached())
	r.rates = append(r.rates, float64(eng.Snapshot().Insts+simulated*s.opts.Warmup)/coldWall/1e6)
	r.simulated = simulated

	// Warm requests are normalized by loopback round trips (see
	// newEchoClock); without a host clock (the traced run) they stay raw.
	var echo *hostClock
	if r.clk != nil {
		if echo, err = newEchoClock(); err != nil {
			s.shut(srv, eng, live)
			return err
		}
		defer echo.close()
	}
	var warmWall float64
	hits := int64(0)
	for c := 0; c < len(s.warm); c += hitChunk {
		d, _ := r.segOn(echo, func() error {
			a0 := mallocs()
			for _, k := range s.warm[c:min(c+hitChunk, len(s.warm))] {
				b, tier, d, err := s.post(live.base, s.bodies[k])
				if err == nil && tier == "hit" {
					hits++
				}
				if err == nil && (tier != "hit" || !bytes.Equal(b, coldBodies[k])) {
					err = fmt.Errorf("serve: warm %s answered %q with different bytes", s.cold[k], tier)
				}
				r.check(err)
				r.hits = append(r.hits, us(d))
			}
			r.hitAllocs += mallocs() - a0
			return nil
		})
		warmWall += d
	}
	r.hitRates = append(r.hitRates, float64(len(s.warm))/warmWall)
	r.rounds = append(r.rounds, coldWall+warmWall)
	r.tierHits += hits
	r.tierTotal += int64(len(s.bodies) + len(s.warm))
	if err := s.shut(srv, eng, live); err != nil {
		return err
	}

	// Output check, outside the timed phases.
	var errSum float64
	n := 0
	for i, b := range coldBodies {
		var res api.Result
		err := json.Unmarshal(b, &res)
		var out *sim.RunOut
		if err == nil {
			out, err = res.ToRunOut()
		}
		if err == nil {
			err = s.or.verify(s.cold[i], out.Stats)
		}
		r.check(err)
		if err == nil && s.cold[i].Scheme == core.PosSel {
			errSum += paperIPCError(s.cold[i], out.Stats.IPC())
			n++
		}
	}
	r.ipcErrPct = 100 * errSum / float64(n)
	if s.last != "" {
		os.RemoveAll(s.last)
	}
	s.last = dir
	return nil
}

// setupUnit restarts simd over the latest round's populated store and
// journal, until its listener answers /v1/healthz.
func (s *serveLoad) setupUnit(r *recorder) error {
	var (
		srv  *serve.Server
		eng  *sim.Engine
		live *liveServer
	)
	d, err := r.seg(func() error {
		var err error
		if srv, eng, live, err = s.open(s.last, nil, r); err != nil {
			return err
		}
		resp, err := s.client.Get(live.base + api.PathPrefix + "/healthz")
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("serve: healthz HTTP %d", resp.StatusCode)
		}
		return err
	})
	r.check(err)
	r.setups = append(r.setups, d)
	if live == nil {
		return err
	}
	return s.shut(srv, eng, live)
}

// hitUnit does nothing: the serve round's warm phase is its hit unit.
func (s *serveLoad) hitUnit(*recorder) error { return nil }
