// Command simd serves simulations over HTTP: the v1 wire API
// (internal/api) in front of the in-process batch engine, with a
// content-addressed result store so a spec ever simulates once, a
// singleflight collapsing concurrent duplicate submissions, and SSE
// progress streaming. -par bounds how many simulations run at once.
//
// Usage:
//
//	simd -addr localhost:8080 -data simd-data -par 4
//	simd -loadtest 1000 -requests 5 -base http://localhost:8080 -bench mcf -scheme TkSel
//
// The same binary is its own load generator (-loadtest N).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/simflag"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	data := flag.String("data", "simd-data", "data directory (result store and engine journal)")
	par := flag.Int("par", 0, "max concurrent simulations (0 = NumCPU)")
	loadClients := flag.Int("loadtest", 0, "run a load test with N concurrent clients against -base, print the report, exit")
	loadReqs := flag.Int("requests", 5, "requests per client under -loadtest")
	base := flag.String("base", "http://localhost:8080", "server URL for -loadtest")
	f := simflag.New()
	f.RegisterBench(flag.CommandLine)
	f.RegisterMachine(flag.CommandLine)
	f.RegisterLength(flag.CommandLine)
	f.RegisterSeed(flag.CommandLine)
	f.RegisterCheck(flag.CommandLine)
	flag.Parse()

	if f.HandleListSchemes(os.Stdout) {
		return
	}
	if err := f.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := f.Options()
	opts.Parallelism = *par
	if *loadClients > 0 {
		runLoadtest(ctx, *base, *loadClients, *loadReqs, f)
		return
	}
	runServer(ctx, *addr, *data, opts)
}

// runServer serves the v1 API over an in-process engine until ctx is
// canceled.
func runServer(ctx context.Context, addr, data string, opts sim.Options) {
	store, err := serve.OpenStore(filepath.Join(data, "store"))
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	opts.Journal = filepath.Join(data, "engine.jsonl")
	eng := sim.NewEngine(opts)
	defer eng.Close()
	srv, err := serve.New(serve.Config{Store: store, Engine: eng, Logf: log.Printf})
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	hs := &http.Server{Addr: addr, Handler: srv}
	go func() {
		<-ctx.Done()
		srv.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
	}()
	log.Printf("simd: serving %s on http://%s (data %s, par %d)", api.Version, addr, data, eng.Options().Parallelism)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("simd: %v", err)
	}
}

// runLoadtest hammers a running server with the flag-selected spec and
// prints the cache-behaviour report.
func runLoadtest(ctx context.Context, base string, clients, reqs int, f *simflag.Sim) {
	s := f.Spec()
	s.Over.Check, _ = f.Check()
	spec := api.FromSimSpec(s)
	rep, err := serve.LoadTest(ctx, serve.LoadConfig{
		Base:    base,
		Clients: clients, PerClient: reqs,
		Specs: []api.Spec{spec},
		Insts: f.Insts, Warmup: f.Warmup, Seed: f.Seed,
	})
	if err != nil {
		log.Fatalf("simd: %v", err)
	}
	fmt.Println(rep)
	if !rep.Ok() {
		os.Exit(1)
	}
}
