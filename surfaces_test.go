package repro

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestSurfacesAgree: the facade, the batch engine and the HTTP service
// are three ways into one simulator, so for the same spec they must
// return the same Stats — every counter and the RetireHash. A surface
// that maps a spec onto a machine its own way shows up here as a
// diverging field.
func TestSurfacesAgree(t *testing.T) {
	const insts, warmup, seed = 6_000, 2_000, 3
	cases := []struct {
		name   string
		facade Options
		spec   sim.Spec
	}{
		{
			"TkSel tokens",
			Options{Benchmark: "mcf", Scheme: TkSel, Tokens: 8},
			sim.Spec{Bench: "mcf", Scheme: core.TkSel, Over: sim.Overrides{Tokens: 8}},
		},
		{
			"8-wide",
			Options{Benchmark: "gcc", Wide8: true, Scheme: NonSel},
			sim.Spec{Bench: "gcc", Wide8: true, Scheme: core.NonSel},
		},
		{
			"value prediction",
			Options{Benchmark: "parser", Scheme: IDSel, ValuePrediction: true},
			sim.Spec{Bench: "parser", Scheme: core.IDSel, Over: sim.Overrides{ValuePrediction: true}},
		},
		{
			"replay queue",
			Options{Benchmark: "gap", Scheme: DSel, ReplayQueue: true},
			sim.Spec{Bench: "gap", Scheme: core.DSel, Over: sim.Overrides{ReplayQueue: true}},
		},
	}

	ctx := context.Background()
	opts := sim.Options{Insts: insts, Warmup: warmup, Seed: seed, Parallelism: 1}
	store, err := serve.OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(opts)
	srv, err := serve.New(serve.Config{Store: store, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
		eng.Close()
	}()
	client := api.NewClient(ts.URL, opts)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fo := c.facade
			fo.Insts, fo.Warmup, fo.Seed = insts, warmup, seed
			res, err := Run(fo)
			if err != nil {
				t.Fatal(err)
			}
			local, err := sim.Run(ctx, c.spec, opts)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := client.Run(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			want := statsJSON(t, res.Stats)
			for _, got := range []struct {
				surface string
				st      *core.Stats
			}{{"sim.Run", local.Stats}, {"api.Client.Run", remote.Stats}} {
				if got.st.RetireHash != res.Stats.RetireHash {
					t.Errorf("%s retire hash %016x, repro.Run %016x",
						got.surface, got.st.RetireHash, res.Stats.RetireHash)
				}
				if js := statsJSON(t, got.st); js != want {
					t.Errorf("%s stats diverge from repro.Run\n  %s %s\n  repro.Run %s",
						got.surface, got.surface, js, want)
				}
			}
		})
	}
}

func statsJSON(t *testing.T, st *core.Stats) string {
	t.Helper()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}
