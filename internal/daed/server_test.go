package daed

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dae/internal/eval"
)

// newTestServer starts a daed server over httptest and returns it with a
// ready client.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, &Client{Base: ts.URL}
}

// TestSimulateCollapseAndStore is the tentpole acceptance test: N identical
// concurrent requests trigger exactly one pipeline execution — every
// response is either the leader's, collapsed onto the in-flight execution,
// or served from the artifact store — and all N reports are byte-identical.
func TestSimulateCollapseAndStore(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	const n = 12
	ctx := context.Background()
	req := &SimulateRequest{App: "CG"}

	var wg sync.WaitGroup
	resps := make([]*SimulateResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Simulate(ctx, req)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.Stats().Executions; got != 1 {
		t.Fatalf("pipeline executions = %d, want exactly 1 for %d identical requests", got, n)
	}
	leaders, collapsed, hits := 0, 0, 0
	for i, r := range resps {
		if r.Report != resps[0].Report {
			t.Errorf("request %d report differs from request 0", i)
		}
		if r.Degraded {
			t.Errorf("request %d unexpectedly degraded", i)
		}
		switch {
		case r.CacheHit:
			hits++
		case r.Collapsed:
			collapsed++
		default:
			leaders++
		}
	}
	if leaders != 1 {
		t.Errorf("leaders = %d (collapsed %d, store hits %d), want exactly 1", leaders, collapsed, hits)
	}

	// A later identical request is a pure store hit: still one execution.
	r, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("warm request: %v", err)
	}
	if !r.CacheHit || r.Report != resps[0].Report {
		t.Errorf("warm request: cacheHit=%t, report identical=%t; want true, true",
			r.CacheHit, r.Report == resps[0].Report)
	}
	if got := s.Stats().Executions; got != 1 {
		t.Errorf("executions after warm request = %d, want 1", got)
	}
}

// TestSimulateByteIdenticalToLocal: the server's report is byte-identical
// to running the same plan through the local pipeline — one formatter, one
// trace semantics, two transports.
func TestSimulateByteIdenticalToLocal(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	req := &SimulateRequest{App: "CG", Cores: 2}
	resp, err := c.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}

	p, err := req.plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	data, err := eval.CollectWith(context.Background(), p.app, p.cfg, eval.CollectOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local collection: %v", err)
	}
	want := eval.FormatRunReport(data, p.machine)
	if resp.Report != want {
		t.Fatalf("remote report differs from local rendering:\nremote:\n%q\nlocal:\n%q", resp.Report, want)
	}
}

// TestSimulateSaturation: with one worker and no wait queue, a burst of
// distinct-key requests is shed at admission with 429 + Retry-After while
// admitted work completes normally.
func TestSimulateSaturation(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	resps := make([]*SimulateResponse, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct core counts give every request its own content key,
			// so nothing collapses and admission control must arbitrate.
			resps[i], errs[i] = c.Simulate(context.Background(), &SimulateRequest{App: "CG", Cores: i + 1})
		}(i)
	}
	wg.Wait()

	ok, saturated := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
			if resps[i].Report == "" {
				t.Errorf("request %d: admitted but empty report", i)
			}
		default:
			var re *RemoteError
			if !asRemote(err, &re) || !re.Saturated() {
				t.Fatalf("request %d: %v, want nil or 429", i, err)
			}
			saturated++
			if re.RetryAfter <= 0 {
				t.Errorf("request %d: 429 without a Retry-After hint", i)
			}
		}
	}
	if ok == 0 {
		t.Error("saturated server served nothing")
	}
	if saturated == 0 {
		t.Errorf("burst of %d distinct requests on 1 worker with no queue produced no 429", n)
	}
	if got := s.Stats().Rejected; got != int64(saturated) {
		t.Errorf("stats.Rejected = %d, want %d", got, saturated)
	}
}

func asRemote(err error, re **RemoteError) bool { return errors.As(err, re) }

// TestClientDisconnectFreesWorker: the only worker is occupied by a request
// whose client disconnects mid-collection. The refcounted flight context
// aborts the pipeline, the slot frees, and a subsequent request is served.
// The aborted key was never stored, so retrying it re-executes.
func TestClientDisconnectFreesWorker(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	// LU is the slowest benchmark (hundreds of ms even without -race), so
	// canceling 100ms in lands mid-collection.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Simulate(ctx, &SimulateRequest{App: "LU"})
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request returned a result")
	}

	// The worker slot must free promptly: a fresh request on the sole
	// worker completes well before LU could have finished had it leaked.
	start := time.Now()
	resp, err := c.Simulate(context.Background(), &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("request after disconnect: %v (slot leaked?)", err)
	}
	if resp.Report == "" {
		t.Error("empty report after disconnect recovery")
	}
	t.Logf("post-disconnect request served in %v", time.Since(start))

	// The aborted artifact never entered the store: the same key re-executes.
	resp, err = c.Simulate(context.Background(), &SimulateRequest{App: "LU"})
	if err != nil {
		t.Fatalf("retry of aborted key: %v", err)
	}
	if resp.CacheHit {
		t.Error("aborted execution left an artifact in the store")
	}
	st := s.Stats()
	if st.Canceled == 0 {
		t.Errorf("stats.Canceled = 0, want >= 1")
	}
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Errorf("gauges not drained: inFlight=%d waiting=%d", st.InFlight, st.Waiting)
	}
}

// TestTenantQuarantineIsolation: an injected access fault degrades the
// injecting tenant's requests — and only that tenant's. Other tenants keep
// getting clean, store-served results; clearing the quarantine restores the
// tenant.
func TestTenantQuarantineIsolation(t *testing.T) {
	s, cDefault := newTestServer(t, Config{Workers: 2})
	cChaos := &Client{Base: cDefault.Base, Tenant: "chaos"}
	ctx := context.Background()

	// The chaos tenant injects an access-phase trap into CG's compiler-DAE
	// run: the supervisor quarantines the task type and the response is
	// flagged degraded.
	resp, err := cChaos.Simulate(ctx, &SimulateRequest{App: "CG", Inject: "access-phase,CG,compiler-dae,,trap!"})
	if err != nil {
		t.Fatalf("injected simulate: %v", err)
	}
	if !resp.Degraded || len(resp.Quarantined) == 0 {
		t.Fatalf("injected access fault not quarantined: degraded=%t quarantined=%v",
			resp.Degraded, resp.Quarantined)
	}
	for task, kind := range resp.Quarantined {
		if kind != "trap" {
			t.Errorf("task %s quarantined as %q, want trap", task, kind)
		}
	}

	// The chaos tenant's later CLEAN request for the same app still serves
	// degraded: quarantine is a tenant property, not a request property.
	resp, err = cChaos.Simulate(ctx, &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("chaos clean simulate: %v", err)
	}
	if !resp.Degraded || len(resp.Quarantined) == 0 {
		t.Error("chaos tenant's quarantine did not persist across requests")
	}

	// The default tenant is untouched: clean result, clean flags, and its
	// report matches an independent local rendering (the chaos tenant's
	// poison never reached the shared store).
	clean, err := cDefault.Simulate(ctx, &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("default tenant simulate: %v", err)
	}
	if clean.Degraded || len(clean.Quarantined) != 0 {
		t.Fatalf("default tenant inherited chaos quarantine: %+v", clean)
	}
	p, _ := (&SimulateRequest{App: "CG"}).plan()
	data, err := eval.CollectWith(ctx, p.app, p.cfg, eval.CollectOptions{Workers: 1})
	if err != nil {
		t.Fatalf("local collection: %v", err)
	}
	if want := eval.FormatRunReport(data, p.machine); clean.Report != want {
		t.Error("default tenant's report differs from a clean local run: store was poisoned")
	}
	if st := s.Stats(); st.QuarantinedTenants != 1 {
		t.Errorf("QuarantinedTenants = %d, want 1", st.QuarantinedTenants)
	}

	// Clearing the quarantine restores the chaos tenant to the clean path.
	n, err := cChaos.ClearQuarantine(ctx)
	if err != nil || n == 0 {
		t.Fatalf("ClearQuarantine = %d, %v; want > 0, nil", n, err)
	}
	resp, err = cChaos.Simulate(ctx, &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("chaos simulate after clear: %v", err)
	}
	if resp.Degraded {
		t.Error("chaos tenant still degraded after clearing quarantine")
	}
	if resp.Report != clean.Report {
		t.Error("restored chaos tenant does not see the shared clean artifact")
	}
}

// TestCompileEndpoint: compile artifacts — strategy report, purity
// verdicts, generated module IR — are served, stored, and collapsed like
// simulate artifacts.
func TestCompileEndpoint(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	resp, err := c.Compile(ctx, &CompileRequest{App: "CG"})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if resp.Strategies == "" || !strings.Contains(resp.Strategies, "CG") {
		t.Errorf("strategy report missing or empty: %q", resp.Strategies)
	}
	if !strings.Contains(resp.Purity, "purity PASS") {
		t.Errorf("purity report has no PASS verdict:\n%s", resp.Purity)
	}
	if len(resp.Modules) == 0 {
		t.Error("no generated access modules returned")
	}
	for task, ir := range resp.Modules {
		if ir == "" {
			t.Errorf("task %s: empty IR listing", task)
		}
	}

	warm, err := c.Compile(ctx, &CompileRequest{App: "CG"})
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if !warm.CacheHit {
		t.Error("second identical compile was not a store hit")
	}
	if warm.Strategies != resp.Strategies || warm.Purity != resp.Purity {
		t.Error("warm compile artifact differs from cold")
	}
	if got := s.Stats().Executions; got != 1 {
		t.Errorf("compile executions = %d, want 1", got)
	}
}

// TestBadRequests: malformed requests are client errors, not executions.
func TestBadRequests(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []SimulateRequest{
		{App: "NoSuchApp"},
		{App: "CG", Degrade: "sometimes"},
		{App: "CG", Inject: "nonsense"},
		{App: "CG", Cores: -1},
	}
	for _, req := range cases {
		_, err := c.Simulate(ctx, &req)
		var re *RemoteError
		if !asRemote(err, &re) || re.Status != http.StatusBadRequest {
			t.Errorf("request %+v: err = %v, want 400", req, err)
		}
	}
	if got := s.Stats().Executions; got != 0 {
		t.Errorf("bad requests triggered %d executions", got)
	}
}

// TestEngineMemberIgnored: daebench and daerun binaries built while the
// interpreter engine was a request field send "engine":"bytecode" or
// "engine":"tree". decodeRequest ignores unknown members, so such requests
// are served like requests without one: 200, the same content key and the
// same stored artifact bytes (each request runs cold on its own server).
func TestEngineMemberIgnored(t *testing.T) {
	for _, path := range []string{"/v1/simulate", "/v1/trace"} {
		var wantKey string
		var wantArtifact []byte
		for _, body := range []string{`{"app":"CG"}`, `{"app":"CG","engine":"tree"}`, `{"app":"CG","engine":"bytecode"}`} {
			s, c := newTestServer(t, Config{Workers: 1})
			resp, err := http.Post(c.Base+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Key string `json:"key"`
			}
			err = json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("%s %s: status %d, decode error %v", path, body, resp.StatusCode, err)
			}
			artifact, ok := s.store.Get(got.Key)
			if !ok {
				t.Fatalf("%s %s: no stored artifact under %q", path, body, got.Key)
			}
			if wantKey == "" {
				wantKey, wantArtifact = got.Key, artifact
				continue
			}
			if got.Key != wantKey {
				t.Errorf("%s %s: key %q, want %q", path, body, got.Key, wantKey)
			}
			if !bytes.Equal(artifact, wantArtifact) {
				t.Errorf("%s %s: stored artifact differs from the request without an engine", path, body)
			}
		}
	}
}

// TestServerStepBudgetClamp: the server-wide MaxSteps ceiling applies to
// requests that ask for more (or for no budget), surfacing as a pipeline
// fault rather than unbounded work.
func TestServerStepBudgetClamp(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxSteps: 1})
	_, err := c.Simulate(context.Background(), &SimulateRequest{App: "CG"})
	var re *RemoteError
	if !asRemote(err, &re) || re.Status != http.StatusInternalServerError {
		t.Fatalf("clamped request err = %v, want 500", err)
	}
	if !strings.Contains(re.Body.Class, "step-budget") {
		t.Errorf("fault class = %q, want step-budget", re.Body.Class)
	}
}

// TestThousandConcurrentRequests: a kilorequest burst on a warm key — every
// request answered, none lost or hung, all byte-identical, and the pipeline
// ran exactly once.
func TestThousandConcurrentRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 1000 concurrent requests")
	}
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	warm, err := c.Simulate(ctx, &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("warming request: %v", err)
	}

	const n = 1000
	var wg sync.WaitGroup
	errsc := make(chan error, n)
	diff := make(chan int, n)
	deadline, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := c.Simulate(deadline, &SimulateRequest{App: "CG"})
			if err != nil {
				errsc <- err
				return
			}
			if r.Report != warm.Report {
				diff <- i
			}
		}(i)
	}
	wg.Wait()
	close(errsc)
	close(diff)
	for err := range errsc {
		t.Fatalf("request lost under kilorequest burst: %v", err)
	}
	for i := range diff {
		t.Errorf("request %d: report differs under load", i)
	}
	st := s.Stats()
	if st.Executions != 1 {
		t.Errorf("executions under hot-key burst = %d, want 1", st.Executions)
	}
	if st.Requests < n+1 {
		t.Errorf("requests = %d, want >= %d", st.Requests, n+1)
	}
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Errorf("gauges not drained: inFlight=%d waiting=%d", st.InFlight, st.Waiting)
	}
}

// TestStatsEndpoint: the counters are served over the wire.
func TestStatsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	if _, err := c.Simulate(context.Background(), &SimulateRequest{App: "CG"}); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Requests != 1 || st.Executions != 1 {
		t.Errorf("stats = %+v, want 1 request and 1 execution", st)
	}
	if st.LatencyP50Ms <= 0 {
		t.Errorf("p50 latency = %v, want > 0", st.LatencyP50Ms)
	}
}

// TestStorePersistsAcrossServers: a new server over the same directory
// serves the old server's artifacts without re-executing — the store (and
// the trace cache under it) is the durable layer.
func TestStorePersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	s1, c1 := newTestServer(t, Config{Workers: 1, Dir: dir})
	cold, err := c1.Simulate(context.Background(), &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("cold simulate: %v", err)
	}
	if got := s1.Stats().Executions; got != 1 {
		t.Fatalf("cold executions = %d, want 1", got)
	}

	s2, c2 := newTestServer(t, Config{Workers: 1, Dir: dir})
	warm, err := c2.Simulate(context.Background(), &SimulateRequest{App: "CG"})
	if err != nil {
		t.Fatalf("warm simulate: %v", err)
	}
	if !warm.CacheHit {
		t.Error("restarted server missed its persisted store")
	}
	if warm.Report != cold.Report {
		t.Error("persisted artifact differs from the original")
	}
	if got := s2.Stats().Executions; got != 0 {
		t.Errorf("restarted server executed %d pipelines, want 0", got)
	}
}
