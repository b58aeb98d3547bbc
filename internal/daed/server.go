package daed

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dae/internal/analysis"
	"dae/internal/bench"
	daepass "dae/internal/dae"
	"dae/internal/daed/ring"
	"dae/internal/daed/store"
	"dae/internal/eval"
	"dae/internal/fault"
	"dae/internal/fault/inject"
	"dae/internal/flight"
)

// Config configures a Server.
type Config struct {
	// Dir is the root of the persistent store. Traces live under Dir/traces
	// (the eval.TraceCache envelope format — a directory shared with
	// daebench/daerun -cache-dir warms both ways), rendered artifacts under
	// Dir/artifacts. Empty means memory-only.
	Dir string
	// Workers bounds concurrent pipeline executions; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds how many executions may wait for a worker slot
	// before admission control starts rejecting with 429; < 0 means 0
	// (reject as soon as every worker is busy), 0 means the default 64.
	QueueDepth int
	// DefaultTimeout bounds a request's wait when it names none; 0 means
	// 60s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested waits; 0 means 5m.
	MaxTimeout time.Duration
	// MaxRunTime bounds one pipeline execution regardless of waiters; 0
	// means 10m. It is the server's hard defense against a pathological
	// workload outliving every client.
	MaxRunTime time.Duration
	// MaxSteps, when positive, caps (and defaults) every request's
	// interpreter step budget: a request asking for more (or for no budget
	// at all) is clamped to this ceiling.
	MaxSteps int64
	// StoreMaxBytes, when positive, is the artifact store's disk budget:
	// past it, least-recently-used artifacts are evicted (keys with requests
	// in flight are pinned and never evicted).
	StoreMaxBytes int64
	// Self is this node's advertised base URL (e.g. http://127.0.0.1:8081)
	// — its identity on the cluster ring. Empty (or no Peers) means
	// standalone.
	Self string
	// Peers lists the other cluster members' advertised base URLs. Every
	// member must be configured with the same total membership (its own
	// Self plus its Peers) for the rings to agree.
	Peers []string
	// Replicas is the replication factor R: each content key lives on its
	// ring primary plus R-1 replicas. <= 0 means DefaultReplicas, clamped
	// to the membership size.
	Replicas int
	// RingSeed seeds the consistent-hash ring; 0 means DefaultRingSeed.
	// All members and clients must agree.
	RingSeed uint64
	// RepairInterval is the anti-entropy period: how often a repair pass
	// walks the local store, pushes under-replicated envelopes to their
	// owners, and releases keys this node no longer owns. 0 means 30s;
	// negative turns off the periodic pass only (membership changes and
	// drains still run theirs).
	RepairInterval time.Duration
	// DrainTimeout bounds the drain protocol a membership removal triggers
	// in the background (an admin leave); 0 means 30s. SIGTERM drains are
	// bounded by the caller's context instead.
	DrainTimeout time.Duration
	// Log receives serving events; nil discards them.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxRunTime <= 0 {
		c.MaxRunTime = 10 * time.Minute
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Log == nil {
		c.Log = log.New(io.Discard, "", 0)
	}
	return c
}

// Server is the daed service: an http.Handler serving the compile/simulate
// pipeline behind a content-addressed artifact store, request singleflight,
// an admission-controlled job queue, and per-tenant quarantine.
type Server struct {
	cfg          Config
	traces       *eval.TraceCache
	store        *store.Store
	q            *queue
	sims         flight.Group[string, *simArtifact]
	comps        flight.Group[string, *compileArtifact]
	traceFlights flight.Group[string, *traceArtifact]
	tenants      tenantRegistry
	stats        stats
	mux          *http.ServeMux
	cluster      *cluster
	draining     atomic.Bool
	repWG        sync.WaitGroup // in-flight write-behind replications

	stop     chan struct{}  // closed by Close: stops repair/gossip
	loopWG   sync.WaitGroup // background loops (repair, gossip, leave-drain)
	closed   atomic.Bool
	kick     chan struct{} // 1-buffered: a repair pass under the current view is due
	handoffs chan handoff  // a drain's repair pass under the leave view
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	traceDir, artifactDir := "", ""
	if cfg.Dir != "" {
		traceDir = cfg.Dir + "/traces"
		artifactDir = cfg.Dir + "/artifacts"
	}
	s := &Server{
		cfg:     cfg,
		traces:  eval.NewTraceCache(traceDir),
		store:   store.Open(store.Config{Dir: artifactDir, MaxBytes: cfg.StoreMaxBytes}),
		cluster: newCluster(cfg),
	}
	s.q = newQueue(cfg.Workers, cfg.QueueDepth, &s.stats)
	s.stop = make(chan struct{})
	s.kick = make(chan struct{}, 1)
	s.handoffs = make(chan handoff)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/trace", s.handleTrace)
	s.mux.HandleFunc("PUT /v1/artifact", s.handleArtifactPut)
	s.mux.HandleFunc("GET /v1/artifact", s.handleArtifactGet)
	s.mux.HandleFunc("HEAD /v1/artifact", s.handleArtifactHead)
	s.mux.HandleFunc("POST /v1/members", s.handleMembers)
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("DELETE /v1/quarantine", s.handleClearQuarantine)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	if s.cluster != nil {
		s.loopWG.Add(1)
		go s.repairLoop()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the background loops (repair, gossip) and waits for
// them plus in-flight write-behind replication. It does not drain — call
// Drain first for a graceful exit. Idempotent.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	s.loopWG.Wait()
	s.repWG.Wait()
}

// clusterView returns the membership view a request pins at entry (nil on a
// standalone server).
func (s *Server) clusterView() *ring.View {
	if s.cluster == nil {
		return nil
	}
	return s.cluster.current()
}

// boundedCtx returns a context bounded by d that is also canceled when the
// server closes, so background loops never outlive Close.
func (s *Server) boundedCtx(d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	stopper := make(chan struct{})
	go func() {
		select {
		case <-s.stop:
			cancel()
		case <-ctx.Done():
		}
		close(stopper)
	}()
	return ctx, func() { cancel(); <-stopper }
}

// Stats returns a point-in-time snapshot of the serving counters.
func (s *Server) Stats() StatsSnapshot {
	snap := s.stats.snapshot(s.tenants.tenants())
	snap.Store = s.store.Stats()
	snap.Draining = s.draining.Load()
	if s.cluster != nil {
		snap.Ring = s.ringResponse()
	}
	return snap
}

// tenantOf resolves the requesting tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// writeJSON renders one JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps a pipeline failure to its HTTP shape and counts it: 429 +
// Retry-After for admission rejections (already counted by the queue), 504
// for deadline/cancellation (counted canceled), 500 with the fault taxonomy
// class otherwise (counted faults).
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var sat *saturatedError
	switch {
	case errors.As(err, &sat):
		w.Header().Set("Retry-After", strconv.Itoa(int((sat.retryAfter+time.Second-1)/time.Second)))
		s.writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: err.Error(), Class: "saturated", RetryAfterMs: sat.retryAfter.Milliseconds(),
		})
	case errors.Is(err, fault.ErrTimeout):
		s.stats.canceled.Add(1)
		if r.Context().Err() != nil {
			// The client is gone; nothing we write is deliverable. Let the
			// connection close.
			return
		}
		s.writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Class: fault.ClassOf(err)})
	default:
		s.stats.faults.Add(1)
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Class: fault.ClassOf(err)})
	}
}

// clampSteps applies the server's step-budget ceiling to a request budget.
func (s *Server) clampSteps(req int64) int64 {
	if s.cfg.MaxSteps > 0 && (req <= 0 || req > s.cfg.MaxSteps) {
		return s.cfg.MaxSteps
	}
	return req
}

// decodeRequest counts one request and decodes its JSON body into req. It
// answers 503 while the server drains and 400 for a malformed body, and
// then reports false.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	s.stats.requests.Add(1)
	if s.draining.Load() {
		s.rejectDraining(w)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error(), Class: "parse"})
		return false
	}
	return true
}

// badRequest answers 400 for a request that fails validation.
func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Class: "parse"})
}

// hold pins key in the store for the life of the request, so budget
// eviction never races an execution (or a hit being re-read) on it, and
// bounds the request's wait by timeoutMs, defaulted and capped by the
// config. release undoes both.
func (s *Server) hold(r *http.Request, key string, timeoutMs int64) (ctx context.Context, release func()) {
	s.store.Pin(key)
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(d, s.cfg.MaxTimeout))
	return ctx, func() {
		cancel()
		s.store.Unpin(key)
	}
}

// served records a served request's latency and returns it in
// milliseconds.
func (s *Server) served(start time.Time) float64 {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	s.stats.observe(ms)
	return ms
}

// ladder is what one content-keyed endpoint contributes to serve.
type ladder[A any] struct {
	key     string
	path    string // the endpoint, for a proxy to forward req to
	req     any
	flights *flight.Group[string, A]
	// hit answers the request from stored artifact bytes, counting the
	// store hit; it writes nothing and reports false when the bytes cannot
	// answer it.
	hit func(b []byte) bool
	// run executes the pipeline.
	run func(ctx context.Context) (A, error)
	// fresh answers the request from run's result; collapsed reports that
	// another request's execution produced it.
	fresh func(art A, collapsed bool)
}

// serve answers a content-keyed request under its bounded context ctx and
// the membership view it pins at entry, trying in order: the local store,
// a 421 redirect, a pull from co-owners, a proxy to the owners, and one
// pipeline execution shared by every identical request in flight.
func serve[A any](ctx context.Context, s *Server, w http.ResponseWriter, r *http.Request, l ladder[A]) {
	v := s.clusterView()
	if b, ok := s.store.Get(l.key); ok && l.hit(b) {
		return
	}
	// A stale epoch-aware client is redirected to the current view (421)
	// instead of served off-placement.
	if s.notOwnerRedirect(w, r, v, l.key) {
		return
	}
	// An owner that misses the envelope pulls it from a co-owner before
	// paying a pipeline execution (read-repair).
	if b, ok := s.pullFromReplicas(ctx, v, l.key); ok && l.hit(b) {
		return
	}
	// A miss on a key this node does not own goes to the owners first: they
	// likely hold the artifact, and executing there keeps placement honest.
	// If no owner can serve, fall through and execute locally.
	if v != nil && s.proxy(w, r.WithContext(ctx), v, l.path, l.key, l.req) {
		return
	}
	art, err, leader := l.flights.Do(ctx, l.key, l.run)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if !leader {
		s.stats.collapsed.Add(1)
	}
	l.fresh(art, !leader)
}

// execute runs one pipeline execution: it waits for a worker slot in the
// admission-controlled queue, counts the execution, bounds it by
// MaxRunTime, and installs and replicates the artifact under key when
// pipeline reports it clean.
func execute[A any](ctx context.Context, s *Server, key string, pipeline func(context.Context) (art A, clean bool, err error)) (A, error) {
	var zero A
	if err := s.q.acquire(ctx); err != nil {
		return zero, err
	}
	defer s.q.release()
	s.stats.executions.Add(1)
	s.stats.inFlight.Add(1)
	defer s.stats.inFlight.Add(-1)
	ctx, cancel := context.WithTimeout(ctx, s.cfg.MaxRunTime)
	defer cancel()

	art, clean, err := pipeline(ctx)
	if err != nil {
		return zero, err
	}
	if clean {
		if b, err := json.Marshal(art); err == nil {
			if err := s.install(key, b); err != nil {
				s.cfg.Log.Printf("daed: artifact store write failed for %s: %v", key, err)
			}
			s.replicate(key, b)
		}
	}
	return art, nil
}

// collectOptions returns the options a plan's collection runs with. A
// request collects one app, which eval traces as one job on one goroutine,
// so one admitted request is one busy worker and queue capacity stays an
// honest model of load.
func (s *Server) collectOptions(p *simPlan) eval.CollectOptions {
	opts := eval.CollectOptions{Cache: s.traces}
	if p.refine {
		opts.Refine = &eval.RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	}
	return opts
}

// handleSimulate serves POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SimulateRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	req.MaxSteps = s.clampSteps(req.MaxSteps)
	p, err := req.plan()
	if err != nil {
		s.badRequest(w, err)
		return
	}
	tenant := tenantOf(r)
	ctx, release := s.hold(r, p.key, req.TimeoutMs)
	defer release()

	// Fault injection and prior tenant quarantine route to the
	// tenant-scoped path: isolated from the shared store in both
	// directions, so one tenant's poison is never another tenant's result.
	if prior := s.tenants.quarantined(tenant, p.app.Name); len(p.rules) > 0 || len(prior) > 0 {
		s.simulateTenant(w, r, ctx, p, tenant, prior, start)
		return
	}
	serve(ctx, s, w, r, ladder[*simArtifact]{
		key: p.key, path: "/v1/simulate", req: &req, flights: &s.sims,
		hit: func(b []byte) bool {
			var art simArtifact
			if json.Unmarshal(b, &art) != nil {
				return false
			}
			s.respondSim(w, &art, p.key, tenant, true, false, start)
			return true
		},
		run: func(ctx context.Context) (*simArtifact, error) { return s.runSimulate(ctx, p, true) },
		fresh: func(art *simArtifact, collapsed bool) {
			s.respondSim(w, art, p.key, tenant, false, collapsed, start)
		},
	})
}

// respondSim assembles and writes one successful simulate response,
// recording any quarantine under the requesting tenant.
func (s *Server) respondSim(w http.ResponseWriter, art *simArtifact, key, tenant string, cacheHit, collapsed bool, start time.Time) {
	if cacheHit {
		s.stats.storeHits.Add(1)
	}
	if len(art.Quarantined) > 0 {
		s.tenants.record(tenant, art.App, art.Quarantined)
	}
	resp := &SimulateResponse{
		App:         art.App,
		Report:      art.Report,
		Degraded:    len(art.Quarantined) > 0,
		Quarantined: art.Quarantined,
		CacheHit:    cacheHit,
		Collapsed:   collapsed,
		Key:         key,
		ElapsedMs:   s.served(start),
	}
	if resp.Degraded {
		s.stats.degraded.Add(1)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// simulateTenant serves the tenant-scoped path: requests carrying fault
// injection or arriving from a tenant with quarantine history. The
// execution still shares the trace cache (healthy traces are
// injection-invariant and degraded traces are never cached, so the shared
// cache cannot be poisoned), but its artifacts are never stored and its
// quarantines are recorded against this tenant only.
func (s *Server) simulateTenant(w http.ResponseWriter, r *http.Request, ctx context.Context, p *simPlan, tenant string, prior map[string]string, start time.Time) {
	art, err := s.runSimulate(ctx, p, false)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if len(art.Quarantined) > 0 {
		s.tenants.record(tenant, art.App, art.Quarantined)
	}
	merged := make(map[string]string, len(prior)+len(art.Quarantined))
	for k, v := range prior {
		merged[k] = v
	}
	for k, v := range art.Quarantined {
		merged[k] = v
	}
	resp := &SimulateResponse{
		App:         art.App,
		Report:      art.Report,
		Degraded:    len(merged) > 0,
		Quarantined: merged,
		Key:         p.key,
		ElapsedMs:   s.served(start),
	}
	if resp.Degraded {
		s.stats.degraded.Add(1)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// runSimulate executes the collect+evaluate pipeline for one plan.
// storeArtifact controls whether a clean artifact is persisted in the
// shared store (the tenant-scoped path never stores).
func (s *Server) runSimulate(ctx context.Context, p *simPlan, storeArtifact bool) (*simArtifact, error) {
	return execute(ctx, s, p.key, func(ctx context.Context) (*simArtifact, bool, error) {
		opts := s.collectOptions(p)
		if len(p.rules) > 0 {
			// Injection must observe a real collection: a warm shared trace
			// cache would serve the healthy trace and the fault would never
			// fire. Injected requests collect uncached — and never write, so
			// their degraded traces cannot reach other tenants either.
			opts.Cache = nil
			in := inject.New(p.rules...)
			opts.Inject = in.Hook()
			opts.InjectPhase = in.PhaseFunc()
		}
		data, err := eval.CollectWith(ctx, p.app, p.cfg, opts)
		if err != nil {
			return nil, false, err
		}
		art := &simArtifact{App: p.app.Name, Report: eval.FormatRunReport(data, p.machine)}
		for _, row := range eval.DegradationRows([]*eval.AppData{data}) {
			for task, kind := range row.Quarantined {
				if art.Quarantined == nil {
					art.Quarantined = make(map[string]string)
				}
				art.Quarantined[task] = kind
			}
		}
		return art, storeArtifact && len(art.Quarantined) == 0, nil
	})
}

// handleCompile serves POST /v1/compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req CompileRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	app, err := bench.AppByName(req.App)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	key := req.compileKey()
	ctx, release := s.hold(r, key, req.TimeoutMs)
	defer release()
	serve(ctx, s, w, r, ladder[*compileArtifact]{
		key: key, path: "/v1/compile", req: &req, flights: &s.comps,
		hit: func(b []byte) bool {
			var art compileArtifact
			if json.Unmarshal(b, &art) != nil {
				return false
			}
			s.respondCompile(w, &art, key, true, false, start)
			return true
		},
		run: func(ctx context.Context) (*compileArtifact, error) { return s.runCompile(ctx, app, req.Refine, key) },
		fresh: func(art *compileArtifact, collapsed bool) {
			s.respondCompile(w, art, key, false, collapsed, start)
		},
	})
}

func (s *Server) respondCompile(w http.ResponseWriter, art *compileArtifact, key string, cacheHit, collapsed bool, start time.Time) {
	if cacheHit {
		s.stats.storeHits.Add(1)
	}
	s.writeJSON(w, http.StatusOK, &CompileResponse{
		App:        art.App,
		Strategies: art.Strategies,
		Purity:     art.Purity,
		Modules:    art.Modules,
		CacheHit:   cacheHit,
		Collapsed:  collapsed,
		Key:        key,
		ElapsedMs:  s.served(start),
	})
}

// runCompile builds one app and renders its static artifacts: the
// generation-decision report, per-task purity verdicts, and the generated
// access variants' IR listings. Compilation is deterministic, so the
// artifact always enters the shared store.
func (s *Server) runCompile(ctx context.Context, app bench.App, refine bool, key string) (*compileArtifact, error) {
	return execute(ctx, s, key, func(context.Context) (art *compileArtifact, clean bool, err error) {
		defer fault.Recover(&err, "compile")
		b, err := app.Build(bench.Auto)
		if err != nil {
			return nil, false, err
		}
		if refine {
			if _, err := b.Refine(daepass.DefaultRefine(), 4); err != nil {
				return nil, false, err
			}
		}
		art = &compileArtifact{
			App:        app.Name,
			Strategies: eval.FormatStrategies([]*eval.AppData{{Name: app.Name, Results: b.Results}}),
			Modules:    make(map[string]string),
		}
		names := make([]string, 0, len(b.Results))
		for n := range b.Results {
			names = append(names, n)
		}
		sort.Strings(names)
		purity := ""
		for _, n := range names {
			res := b.Results[n]
			if res.Access == nil {
				purity += fmt.Sprintf("task @%s: no access version (%s)\n", n, res.Reason)
				continue
			}
			diags := analysis.VerifyAccessPurity(res.Access)
			if analysis.HasErrors(diags) {
				purity += fmt.Sprintf("task @%s: purity FAIL\n%s", n, analysis.Format(diags))
			} else {
				purity += fmt.Sprintf("task @%s: purity PASS (strategy=%s)\n", n, res.Strategy)
			}
			art.Modules[n] = res.Access.String()
		}
		art.Purity = purity
		return art, true, nil
	})
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Stats())
}

// handleClearQuarantine serves DELETE /v1/quarantine: it lifts every
// quarantine recorded for the requesting tenant (an explicit admin action,
// mirroring how runtime quarantine is monotone within a trace). Quarantine
// is per-node process state, so on a cluster member the lift fans out to
// every peer — one DELETE unblocks the tenant cluster-wide.
func (s *Server) handleClearQuarantine(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	n := s.tenants.clear(tenant)
	n += s.clearQuarantinePeers(r, tenant)
	s.writeJSON(w, http.StatusOK, map[string]any{"tenant": tenant, "cleared": n})
}
