package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/sim"
)

// testOpts are run lengths small enough that a cold simulation takes
// milliseconds, so the cache tiers — not the simulator — dominate
// every test here.
func testOpts() sim.Options {
	return sim.Options{Insts: 2000, Warmup: 500, Seed: 1, Parallelism: 2}
}

// newEngineServer builds an in-process-engine server over a fresh
// store and hangs an httptest server in front of it.
func newEngineServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newServerWith(t, testOpts())
}

// newServerWith is newEngineServer over an engine built from opts.
func newServerWith(t *testing.T, opts sim.Options) (*Server, *httptest.Server) {
	t.Helper()
	store, err := OpenStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine(opts)
	srv, err := New(Config{Store: store, Engine: eng, SSEInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		eng.Close()
	})
	return srv, ts
}

func postRun(t *testing.T, base string, req api.RunRequest) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+api.PathPrefix+"/run", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestRunColdThenWarm(t *testing.T) {
	_, ts := newEngineServer(t)
	req := api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "PosSel"}}

	resp, cold := postRun(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: HTTP %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold run X-Cache = %q, want miss", got)
	}
	var res api.Result
	if err := json.Unmarshal(cold, &res); err != nil {
		t.Fatal(err)
	}
	if res.API != api.Version || !api.ValidKey(res.Key) || res.Stats == nil {
		t.Fatalf("malformed result: %+v", res)
	}

	resp, warm := postRun(t, ts.URL, req)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("warm run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm response bytes differ from cold response")
	}

	// The result is addressable directly, byte-identically.
	get, err := http.Get(ts.URL + api.PathPrefix + "/result/" + res.Key)
	if err != nil {
		t.Fatal(err)
	}
	byKey, _ := io.ReadAll(get.Body)
	get.Body.Close()
	if !bytes.Equal(cold, byKey) {
		t.Error("GET /result/{key} bytes differ from the run response")
	}

	// An equivalent spec — the Table 3 default written out explicitly —
	// normalizes to the same address and must hit.
	explicit := req
	explicit.Spec.Over = &api.Overrides{Check: "off"}
	resp, expBody := postRun(t, ts.URL, explicit)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("normalization-equal spec X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, expBody) {
		t.Error("normalization-equal spec got different bytes")
	}
}

func TestRunRejectsBadSubmissions(t *testing.T) {
	_, ts := newEngineServer(t)
	cases := []struct {
		name string
		req  api.RunRequest
	}{
		{"unknown bench", api.RunRequest{Spec: api.Spec{Bench: "nope", Scheme: "PosSel"}}},
		{"unknown scheme", api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "Bogus"}}},
		{"unknown check", api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "PosSel",
			Over: &api.Overrides{Check: "paranoid"}}}},
		{"mismatched insts", api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "PosSel"}, Insts: 999}},
		{"mismatched seed", api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "PosSel"}, Seed: 7}},
	}
	for _, tc := range cases {
		resp, body := postRun(t, ts.URL, tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400 (%s)", tc.name, resp.StatusCode, body)
			continue
		}
		var e api.Error
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, body)
		}
	}

	// Matching explicit lengths are accepted.
	o := testOpts()
	resp, body := postRun(t, ts.URL, api.RunRequest{
		Spec:  api.Spec{Bench: "gcc", Scheme: "PosSel"},
		Insts: o.Insts, Warmup: o.Warmup, Seed: o.Seed,
	})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("matching lengths: HTTP %d: %s", resp.StatusCode, body)
	}
}

func TestResultEndpoint(t *testing.T) {
	_, ts := newEngineServer(t)
	get := func(key string) int {
		resp, err := http.Get(ts.URL + api.PathPrefix + "/result/" + key)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	missing := api.Key(sim.Spec{Bench: "mcf", Scheme: core.TkSel}, 1, 1, 1)
	if got := get(missing); got != http.StatusNotFound {
		t.Errorf("missing key: HTTP %d, want 404", got)
	}
	if got := get("not-a-key"); got != http.StatusBadRequest {
		t.Errorf("malformed key: HTTP %d, want 400", got)
	}
}

func TestSweep(t *testing.T) {
	_, ts := newEngineServer(t)
	req := api.SweepRequest{Specs: []api.Spec{
		{Bench: "gcc", Scheme: "PosSel"},
		{Bench: "nope", Scheme: "PosSel"},
		{Bench: "gcc", Scheme: "TkSel"},
		{Bench: "gcc", Scheme: "PosSel"}, // duplicate of index 0
	}}
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+api.PathPrefix+"/sweep", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", resp.StatusCode, body)
	}
	var sw api.SweepResponse
	if err := json.Unmarshal(body, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 4 {
		t.Fatalf("got %d results, want 4 (aligned with the request)", len(sw.Results))
	}
	if sw.Results[1] != nil {
		t.Error("failed spec should hold a null result slot")
	}
	if sw.Results[0] == nil || sw.Results[2] == nil || sw.Results[3] == nil {
		t.Fatal("valid specs missing results")
	}
	if !reflect.DeepEqual(sw.Results[0], sw.Results[3]) {
		t.Error("duplicate specs in one sweep should produce equal results")
	}
	if len(sw.Errors) != 1 || sw.Errors[0].Index != 1 {
		t.Errorf("errors = %+v, want exactly index 1", sw.Errors)
	}
}

func TestInfoAndHealthz(t *testing.T) {
	_, ts := newEngineServer(t)
	postRun(t, ts.URL, api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "PosSel"}})

	cl := api.NewClient(ts.URL, sim.Options{})
	info, err := cl.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	o := testOpts()
	if info.API != api.Version || info.Insts != o.Insts || info.Warmup != o.Warmup || info.Seed != o.Seed {
		t.Errorf("info lengths: %+v", info)
	}
	if len(info.Schemes) == 0 || len(info.Benches) == 0 {
		t.Error("info registries empty")
	}
	if info.StoreEntries != 1 {
		t.Errorf("storeEntries = %d, want 1", info.StoreEntries)
	}
	if info.Progress.Done != 1 || info.Progress.EngineRuns != 1 {
		t.Errorf("progress = %+v", info.Progress)
	}

	resp, err := http.Get(ts.URL + api.PathPrefix + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestClientIsARunner drives the remote client as a sim.Runner and
// checks it agrees bit-for-bit with a local engine over the same
// specs — the interchangeability the command migration relies on.
func TestClientIsARunner(t *testing.T) {
	_, ts := newEngineServer(t)
	specs := []sim.Spec{
		{Bench: "gcc", Scheme: core.PosSel},
		{Bench: "gcc", Scheme: core.TkSel, Over: sim.Overrides{Tokens: 8}},
		{Bench: "gcc", Scheme: core.PosSel}, // duplicate
	}
	var remote sim.Runner = api.NewClient(ts.URL, sim.Options{})
	got, err := remote.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	local := sim.NewEngine(testOpts())
	want, err := local.RunAll(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if got[i].Spec != want[i].Spec || !reflect.DeepEqual(got[i].Stats, want[i].Stats) {
			t.Errorf("spec %d: remote and local runs disagree", i)
		}
	}
	if !reflect.DeepEqual(got[0], got[2]) {
		t.Error("duplicate specs should return equal results")
	}

	// Per-spec failure shape matches the engine contract: nil slot plus
	// a joined error, not fail-fast.
	outs, err := remote.RunAll(context.Background(),
		[]sim.Spec{{Bench: "gcc", Scheme: core.PosSel}, {Bench: "nope", Scheme: core.PosSel}})
	if err == nil {
		t.Fatal("sweep with an unknown bench should surface a joined error")
	}
	if outs[0] == nil || outs[1] != nil {
		t.Errorf("outs = [%v, %v], want [result, nil]", outs[0], outs[1])
	}
}

// holdLeader arms opts so the first simulation the engine starts
// parks until release is called. OnProgress runs in the leader's exec
// right after it takes a machine slot (Running becomes 1), so a parked
// leader keeps its key in flight while a test piles work onto it.
// release is idempotent; defer it so a failing test never leaves the
// leader, and the httptest server waiting on it, hanging.
func holdLeader(opts *sim.Options) (release func()) {
	hold := make(chan struct{})
	var park, unpark sync.Once
	opts.OnProgress = func(snap sim.Snapshot) {
		if snap.Running == 1 {
			park.Do(func() { <-hold })
		}
	}
	return func() { unpark.Do(func() { close(hold) }) }
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSingleflightCollapse proves the acceptance property directly: N
// concurrent submissions of one cold spec reach the engine exactly
// once. Parking the leader inside the engine makes it deterministic:
// it cannot finish until every follower has piled up behind it.
func TestSingleflightCollapse(t *testing.T) {
	opts := testOpts()
	release := holdLeader(&opts)
	defer release()
	_, ts := newServerWith(t, opts)

	const followers = 15
	type reply struct {
		status int
		tier   string
		body   []byte
	}
	replies := make(chan reply, followers+1)
	reqBody, _ := json.Marshal(api.RunRequest{Spec: api.Spec{Bench: "mcf", Scheme: "TkSel"}})
	for i := 0; i < followers+1; i++ {
		go func() {
			resp, err := http.Post(ts.URL+api.PathPrefix+"/run", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				replies <- reply{status: -1}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), body}
		}()
	}

	// Wait until every submission is inside the server: one leader
	// (engineRuns), the rest collapsed onto it.
	cl := api.NewClient(ts.URL, sim.Options{})
	var last api.Progress
	waitUntil(t, "every submission collapsed", func() bool {
		info, err := cl.Info(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		last = info.Progress
		return last.Collapsed == followers && last.EngineRuns == 1
	})
	if last.Running != 1 {
		t.Fatalf("leader is not parked in the engine: %+v", last)
	}

	// Only now let the leader simulate.
	release()

	var miss, collapsed int
	var first []byte
	for i := 0; i < followers+1; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: HTTP %d: %s", i, r.status, r.body)
		}
		switch r.tier {
		case "miss":
			miss++
		case "collapsed":
			collapsed++
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("collapsed submissions received different bytes")
		}
	}
	if miss != 1 || collapsed != followers {
		t.Errorf("tiers: %d miss, %d collapsed; want 1 and %d", miss, collapsed, followers)
	}
}

// TestLeaderCancelTakeover covers the singleflight's takeover path: a
// follower whose context is live must not inherit the error of a
// leader whose own request was canceled; it takes the key over and
// simulates it itself, with bytes identical to an uncanceled run.
func TestLeaderCancelTakeover(t *testing.T) {
	// The machine polls its context every 4096 cycles, so the spec must
	// run past the first poll for the leader's cancellation to land;
	// mcf's memory stalls carry even a short run well past it.
	opts := testOpts()
	ws := api.Spec{Bench: "mcf", Scheme: "TkSel"}

	ref, _ := newServerWith(t, opts)
	spec, err := ref.parseSpec(ws)
	if err != nil {
		t.Fatal(err)
	}
	want, tier, err := ref.answer(context.Background(), spec)
	if err != nil || tier != "miss" {
		t.Fatalf("reference run: tier %q, err %v", tier, err)
	}
	var res api.Result
	if err := json.Unmarshal(want, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles <= 4096 {
		t.Fatalf("reference run takes %d cycles; the leader would finish before its first cancellation poll",
			res.Stats.Cycles)
	}

	release := holdLeader(&opts)
	defer release()
	srv, _ := newServerWith(t, opts)
	type outcome struct {
		body []byte
		tier string
		err  error
	}
	answer := func(ctx context.Context) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			b, tier, err := srv.answer(ctx, spec)
			ch <- outcome{b, tier, err}
		}()
		return ch
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leader := answer(leaderCtx)
	waitUntil(t, "the leader is parked in the engine", func() bool {
		return srv.engine.Snapshot().Running == 1
	})
	follower := answer(context.Background())
	waitUntil(t, "the follower collapsed onto the leader", func() bool {
		return srv.collapsed.Load() == 1
	})
	cancelLeader()
	release()

	if l := <-leader; !errors.Is(l.err, context.Canceled) {
		t.Fatalf("canceled leader: tier %q, err %v; want context.Canceled", l.tier, l.err)
	}
	f := <-follower
	if f.err != nil || f.tier != "miss" {
		t.Fatalf("follower: tier %q, err %v; want a miss after taking over", f.tier, f.err)
	}
	if !bytes.Equal(f.body, want) {
		t.Error("taken-over run's bytes differ from an uncanceled run's")
	}
	if got := srv.progress().EngineRuns; got != 2 {
		t.Errorf("engine runs = %d, want 2 (the canceled leader and the takeover)", got)
	}
}

func TestStoreReopenAndFailures(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := api.Key(sim.Spec{Bench: "gcc", Scheme: core.PosSel}, 1, 1, 1)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store claims a hit")
	}
	if err := s.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("short", nil); err == nil {
		t.Error("malformed key accepted")
	}
	if got, ok := s.Get(key); !ok || string(got) != `{"x":1}` {
		t.Fatalf("get: %q %v", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d, want 1", s.Len())
	}
	// A fresh open over the same directory sees the entry.
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key); !ok || string(got) != `{"x":1}` {
		t.Fatalf("reopened get: %q %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Errorf("reopened len = %d, want 1", s2.Len())
	}
	// The store indexes keys at open and on Put: a file that appears
	// behind an open store's back is a miss until the next open.
	other := api.Key(sim.Spec{Bench: "gcc", Scheme: core.TkSel}, 1, 1, 1)
	if err := os.WriteFile(filepath.Join(dir, other+".json"), []byte(`{"y":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(other); ok {
		t.Error("unindexed key served from disk")
	}
	s3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s3.Get(other); !ok || string(got) != `{"y":2}` {
		t.Fatalf("reopened get of the late file: %q %v", got, ok)
	}
}

// TestLoadWarmCache is the ISSUE's load criterion: 1000 concurrent
// clients against a warm cache see zero simulation re-runs — cache
// hits only — and byte-identical responses.
func TestLoadWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-client load test skipped in -short mode")
	}
	_, ts := newEngineServer(t)
	spec := api.Spec{Bench: "mcf", Wide8: true, Scheme: "TkSel", Over: &api.Overrides{Tokens: 8}}
	// Warm the one key.
	resp, _ := postRun(t, ts.URL, api.RunRequest{Spec: spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming run failed: HTTP %d", resp.StatusCode)
	}

	rep, err := LoadTest(context.Background(), LoadConfig{
		Base:    ts.URL,
		Clients: 1000, PerClient: 2,
		Specs: []api.Spec{spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Failures != 0 {
		t.Errorf("%d of %d requests failed", rep.Failures, rep.Requests)
	}
	if rep.EngineRunsDelta != 0 {
		t.Errorf("warm cache re-ran the engine %d times, want 0", rep.EngineRunsDelta)
	}
	if rep.Hits != rep.Requests {
		t.Errorf("%d hits over %d requests, want all hits", rep.Hits, rep.Requests)
	}
	if !rep.IdenticalBytes {
		t.Error("identical specs received non-identical bytes")
	}
}

// BenchmarkCacheHitRequest measures the full warm-path round-trip —
// HTTP in, store lookup, bytes out — which is what the service adds on
// top of the simulator. Tracked by cmd/benchguard.
func BenchmarkCacheHitRequest(b *testing.B) {
	store, err := OpenStore(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(testOpts())
	srv, err := New(Config{Store: store, Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()
	defer eng.Close()

	reqBody, _ := json.Marshal(api.RunRequest{Spec: api.Spec{Bench: "gcc", Scheme: "PosSel"}})
	warm, err := http.Post(ts.URL+api.PathPrefix+"/run", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()
	if warm.StatusCode != http.StatusOK {
		b.Fatalf("warming run: HTTP %d", warm.StatusCode)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		hc := &http.Client{}
		for pb.Next() {
			resp, err := hc.Post(ts.URL+api.PathPrefix+"/run", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("HTTP %d", resp.StatusCode)
			}
		}
	})
}
