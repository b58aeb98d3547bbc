// Package client implements the cluster-aware daed client: the resilience
// layer between a caller (daeload, daerun -server, daebench -server, the
// chaos harness) and a set of daed nodes. It routes each request to the
// nodes that own its content key on the shared consistent-hash ring, tracks
// per-node health (consecutive-failure ejection with probation probes),
// backs off saturated nodes per their Retry-After hint with seeded jitter,
// and fails over to replicas on transport errors, 5xx, and draining nodes —
// so a node killed mid-load costs latency, never an accepted request.
//
// All failover decisions ride on the fault taxonomy: transport errors are
// classified by fault.ClassifyTransport, and the jittered exponential
// backoff between full failover rounds is PR-4's fault.Backoff, seeded so
// every run of a test or load drill sleeps the same schedule.
package client

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dae/internal/daed"
	"dae/internal/daed/ring"
	"dae/internal/fault"
)

// Config configures a Cluster client.
type Config struct {
	// Nodes lists the cluster members' base URLs — the same membership every
	// daed node was configured with, so client and servers agree on the ring.
	Nodes []string
	// Seed is the ring seed; 0 means daed.DefaultRingSeed. Must match the
	// servers'.
	Seed uint64
	// Replicas is the replication factor R; <= 0 means daed.DefaultReplicas.
	// The first R ring nodes for a key are its owners (preferred order);
	// the remaining nodes are last-resort fallbacks.
	Replicas int
	// FailureThreshold is how many consecutive transport/5xx failures eject
	// a node; <= 0 means 3.
	FailureThreshold int
	// Probation is how long an ejected node sits out before the next
	// request is allowed to probe it; <= 0 means 2s.
	Probation time.Duration
	// BackoffBase is the base of the jittered exponential backoff between
	// full failover rounds; <= 0 means 25ms.
	BackoffBase time.Duration
	// BackoffSeed seeds the backoff jitter and the Retry-After jitter;
	// 0 means 1.
	BackoffSeed uint64
	// MaxRounds bounds how many full passes over the preference list a
	// request makes before giving up with the last error; <= 0 means 3.
	MaxRounds int
	// MaxSheds bounds how many 429 + Retry-After sleep/retry cycles one
	// request performs; <= 0 means 16. The request context's deadline is
	// the real bound — this is the backstop when there is none.
	MaxSheds int
	// AttemptTimeout, when positive, bounds each individual node attempt
	// with its own deadline. A node behind a one-way partition hangs
	// instead of erroring; without an attempt bound that hang consumes the
	// whole request deadline. With one, the attempt times out and the
	// client fails over to a replica.
	AttemptTimeout time.Duration
	// Pin disables epoch adoption: no epoch header is sent and 421
	// redirects are treated as plain failovers. Use it when the addresses
	// this client dials differ from the cluster's advertised member URLs
	// (e.g. chaos proxies fronting each node) — adopting advertised URLs
	// would silently route around the proxies.
	Pin bool
	// HTTP is the underlying client; nil means http.DefaultClient semantics
	// (per-request deadlines travel via context).
	HTTP *http.Client
}

// Counters is a snapshot of the client's resilience accounting.
type Counters struct {
	// Sheds counts 429 admission rejections encountered (each one slept out
	// per the server's Retry-After hint and re-issued).
	Sheds int64
	// Retries counts request re-issues after a shed backoff.
	Retries int64
	// Failovers counts node switches forced by transport errors, 5xx, or a
	// draining node.
	Failovers int64
	// Ejections counts nodes placed on probation by consecutive failures.
	Ejections int64
	// Redirects counts 421 "not owner, epoch N" answers that made the
	// client adopt a newer membership view and re-route.
	Redirects int64
}

// node is the per-member health record.
type node struct {
	url string

	mu           sync.Mutex
	fails        int       // consecutive failures
	ejectedUntil time.Time // zero when healthy
}

// state classifies a node for the routing loop.
type nodeState int

const (
	healthy nodeState = iota
	probing           // probation expired; one request may probe it
	ejected
)

func (n *node) state(threshold int, now time.Time) nodeState {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fails < threshold {
		return healthy
	}
	if now.After(n.ejectedUntil) {
		return probing
	}
	return ejected
}

// fail records one failure, ejecting the node when it crosses the
// threshold (and re-ejecting a failed probe). Reports whether this call
// ejected it.
func (n *node) fail(threshold int, probation time.Duration, now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	wasEjected := n.fails >= threshold
	n.fails++
	if n.fails >= threshold {
		n.ejectedUntil = now.Add(probation)
	}
	return !wasEjected && n.fails >= threshold
}

// ok restores the node to full health (a successful probe clears history).
func (n *node) ok() {
	n.mu.Lock()
	n.fails = 0
	n.ejectedUntil = time.Time{}
	n.mu.Unlock()
}

// Cluster is a failover-aware client over a daed cluster. It is safe for
// concurrent use; the tenant travels per call, so one Cluster serves every
// tenant of a load generator.
type Cluster struct {
	cfg Config

	// viewMu guards the adoptive membership view: the epoch, the ring built
	// from it, and the per-member health records (grown on adoption, never
	// shrunk — a removed member keeps its history in case it rejoins).
	viewMu sync.Mutex
	epoch  uint64
	ring   *ring.Ring
	nodes  map[string]*node

	rngMu sync.Mutex
	rng   uint64

	sheds     atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64
	ejections atomic.Int64
	redirects atomic.Int64
}

// New builds a Cluster client over cfg. A single-node Nodes list degrades
// gracefully to "retry the one node with backoff".
func New(cfg Config) *Cluster {
	if cfg.Seed == 0 {
		cfg.Seed = daed.DefaultRingSeed
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = daed.DefaultReplicas
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.Probation <= 0 {
		cfg.Probation = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffSeed == 0 {
		cfg.BackoffSeed = 1
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 3
	}
	if cfg.MaxSheds <= 0 {
		cfg.MaxSheds = 16
	}
	cl := &Cluster{
		cfg: cfg,
		// Epoch 1 matches every correctly-booted cluster's initial view, so
		// a fresh client neither redirects on a fresh cluster nor misses a
		// redirect on an evolved one.
		epoch: 1,
		ring:  ring.New(cfg.Nodes, 0, cfg.Seed),
		nodes: make(map[string]*node, len(cfg.Nodes)),
		rng:   cfg.BackoffSeed,
	}
	if cl.cfg.Replicas > cl.ring.Len() {
		cl.cfg.Replicas = cl.ring.Len()
	}
	for _, u := range cl.ring.Members() {
		cl.nodes[u] = &node{url: u}
	}
	return cl
}

// Epoch returns the membership epoch the client currently routes under.
func (cl *Cluster) Epoch() uint64 {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.epoch
}

// Members returns the current view's member URLs in canonical order.
func (cl *Cluster) Members() []string {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	return cl.ring.Members()
}

// adopt installs a strictly newer membership view, growing the health map
// for members this client has not seen before. Pinned clients never adopt.
func (cl *Cluster) adopt(epoch uint64, members []string) bool {
	if cl.cfg.Pin || epoch == 0 || len(members) == 0 {
		return false
	}
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	if epoch <= cl.epoch {
		return false
	}
	cl.epoch = epoch
	cl.ring = ring.New(members, 0, cl.cfg.Seed)
	for _, u := range cl.ring.Members() {
		if _, ok := cl.nodes[u]; !ok {
			cl.nodes[u] = &node{url: u}
		}
	}
	return true
}

// Refresh fetches the current membership from the first node that answers
// GET /v1/ring and adopts it if newer. Pinned clients no-op: their dialed
// addresses are not the advertised membership.
func (cl *Cluster) Refresh(ctx context.Context) error {
	if cl.cfg.Pin {
		return nil
	}
	var lastErr error
	for _, n := range cl.prefs("ring") {
		c := &daed.Client{Base: n.url, HTTP: cl.cfg.HTTP}
		r, err := c.Ring(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		cl.adopt(r.Epoch, r.Members)
		return nil
	}
	return lastErr
}

// epochHeader renders the current epoch for the request header ("" when
// pinned, so the servers treat the client as legacy).
func (cl *Cluster) epochHeader() string {
	if cl.cfg.Pin {
		return ""
	}
	return strconv.FormatUint(cl.Epoch(), 10)
}

// Counters returns a snapshot of the resilience accounting.
func (cl *Cluster) Counters() Counters {
	return Counters{
		Sheds:     cl.sheds.Load(),
		Retries:   cl.retries.Load(),
		Failovers: cl.failovers.Load(),
		Ejections: cl.ejections.Load(),
		Redirects: cl.redirects.Load(),
	}
}

// jitter returns a seeded pseudo-random duration in [0, max). xorshift64,
// mutex-guarded: deterministic for a fixed seed and call order.
func (cl *Cluster) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	cl.rngMu.Lock()
	x := cl.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	cl.rng = x
	cl.rngMu.Unlock()
	return time.Duration(x % uint64(max))
}

// sleep waits d (or until ctx expires).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return fault.Wrap(fault.KindTimeout, ctx.Err())
	case <-t.C:
		return nil
	}
}

// prefs returns the node preference order for key under the current view:
// the R owners first, the remaining members after — availability beats
// placement, so a request whose owners are all down still lands somewhere.
func (cl *Cluster) prefs(key string) []*node {
	cl.viewMu.Lock()
	defer cl.viewMu.Unlock()
	order := cl.ring.Nodes(key, 0)
	out := make([]*node, 0, len(order))
	for _, u := range order {
		out = append(out, cl.nodes[u])
	}
	return out
}

// maxAdopts bounds how many 421 redirect adoptions one request performs:
// each adoption restarts routing under the fresh view, and a healthy
// cluster is never more than a few epochs ahead of a client.
const maxAdopts = 4

// dispatch routes one request: walk the preference list, skipping ejected
// nodes (unless every node is ejected — then try them all anyway, because
// an answer from a suspect node beats no answer), shed-backoff on 429,
// adopt-and-re-route on 421 (stale membership epoch), fail over on
// transport/5xx/draining/attempt-timeout, and between full rounds sleep a
// jittered exponential backoff.
func (cl *Cluster) dispatch(ctx context.Context, tenant, key string, call func(ctx context.Context, c *daed.Client) error) error {
	backoff := fault.Backoff(cl.cfg.BackoffBase, cl.cfg.BackoffSeed^uint64(len(key)))
	var lastErr error
	sheds, adopts := 0, 0
restart:
	prefs := cl.prefs(key)
	if len(prefs) == 0 {
		return errors.New("client: no cluster nodes configured")
	}
	for round := 0; round < cl.cfg.MaxRounds; round++ {
		if round > 0 {
			if err := sleepCtx(ctx, backoff(round-1)); err != nil {
				return err
			}
		}
		// Two passes per round: healthy/probing nodes first, then — only if
		// nothing answered — the ejected ones as a last resort.
		for _, desperate := range []bool{false, true} {
			for _, n := range prefs {
				st := n.state(cl.cfg.FailureThreshold, time.Now())
				if st == ejected && !desperate {
					continue
				}
				if err := ctx.Err(); err != nil {
					if lastErr != nil {
						return lastErr
					}
					return fault.Wrap(fault.KindTimeout, err)
				}
			issue:
				actx := ctx
				acancel := context.CancelFunc(func() {})
				if cl.cfg.AttemptTimeout > 0 {
					actx, acancel = context.WithTimeout(ctx, cl.cfg.AttemptTimeout)
				}
				err := call(actx, &daed.Client{Base: n.url, Tenant: tenant, Epoch: cl.epochHeader(), HTTP: cl.cfg.HTTP})
				acancel()
				if err == nil {
					n.ok()
					return nil
				}
				var re *daed.RemoteError
				if errors.As(err, &re) {
					switch {
					case re.Saturated():
						// Admission shed: the node is healthy, just busy.
						// Sleep out its hint (plus jitter so a fleet of
						// clients does not re-arrive in lockstep) and
						// re-issue to the same node.
						cl.sheds.Add(1)
						sheds++
						if sheds > cl.cfg.MaxSheds {
							return err
						}
						hint := re.RetryAfter
						if hint <= 0 {
							hint = cl.cfg.BackoffBase
						}
						if err := sleepCtx(ctx, hint+cl.jitter(hint/2+time.Millisecond)); err != nil {
							return err
						}
						cl.retries.Add(1)
						goto issue
					case re.Status == http.StatusMisdirectedRequest:
						// Not the owner at a newer epoch: adopt the view the
						// node answered with and re-route immediately (no
						// backoff — the node is healthy, the routing was
						// stale).
						lastErr = err
						if adopts < maxAdopts && cl.adopt(re.Body.Epoch, re.Body.Members) {
							adopts++
							cl.redirects.Add(1)
							goto restart
						}
						// Pinned, malformed, or already-adopted: plain
						// failover.
						cl.failovers.Add(1)
						continue
					case re.Status == http.StatusServiceUnavailable:
						// Draining (or dying): eject immediately so other
						// requests skip it, and fail over.
						n.mu.Lock()
						n.fails = cl.cfg.FailureThreshold
						n.ejectedUntil = time.Now().Add(cl.cfg.Probation)
						n.mu.Unlock()
						cl.ejections.Add(1)
						cl.failovers.Add(1)
						lastErr = err
						continue
					case re.Status/100 == 5:
						if n.fail(cl.cfg.FailureThreshold, cl.cfg.Probation, time.Now()) {
							cl.ejections.Add(1)
						}
						cl.failovers.Add(1)
						lastErr = err
						continue
					default:
						// 4xx: the request itself is wrong; no node will
						// differ.
						return err
					}
				}
				cerr := fault.ClassifyTransport(err)
				if errors.Is(cerr, fault.ErrTimeout) {
					if ctx.Err() == nil && cl.cfg.AttemptTimeout > 0 {
						// The per-attempt budget fired while the request
						// deadline is alive: the node is hung (blackhole,
						// one-way partition). Fail over.
						if n.fail(cl.cfg.FailureThreshold, cl.cfg.Probation, time.Now()) {
							cl.ejections.Add(1)
						}
						cl.failovers.Add(1)
						lastErr = cerr
						continue
					}
					// Our own deadline, not the node's fault.
					if lastErr != nil {
						return lastErr
					}
					return cerr
				}
				if errors.Is(cerr, fault.ErrTransport) {
					if n.fail(cl.cfg.FailureThreshold, cl.cfg.Probation, time.Now()) {
						cl.ejections.Add(1)
					}
					cl.failovers.Add(1)
					lastErr = cerr
					continue
				}
				// Unclassified (decode failure, truncated body): treat like a
				// node fault and fail over — a replica may answer cleanly.
				if n.fail(cl.cfg.FailureThreshold, cl.cfg.Probation, time.Now()) {
					cl.ejections.Add(1)
				}
				cl.failovers.Add(1)
				lastErr = err
				continue
			}
		}
	}
	return lastErr
}

// Simulate runs one simulate request against the cluster, routed by its
// content key.
func (cl *Cluster) Simulate(ctx context.Context, tenant string, req *daed.SimulateRequest) (*daed.SimulateResponse, error) {
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	var resp *daed.SimulateResponse
	err = cl.dispatch(ctx, tenant, key, func(ctx context.Context, c *daed.Client) error {
		r, err := c.Simulate(ctx, req)
		if err == nil {
			resp = r
		}
		return err
	})
	return resp, err
}

// Compile runs one compile request against the cluster.
func (cl *Cluster) Compile(ctx context.Context, tenant string, req *daed.CompileRequest) (*daed.CompileResponse, error) {
	key, _ := req.Key()
	var resp *daed.CompileResponse
	err := cl.dispatch(ctx, tenant, key, func(ctx context.Context, c *daed.Client) error {
		r, err := c.Compile(ctx, req)
		if err == nil {
			resp = r
		}
		return err
	})
	return resp, err
}

// Trace fetches one app's collected trace set from the cluster.
func (cl *Cluster) Trace(ctx context.Context, tenant string, req *daed.TraceRequest) (*daed.TraceResponse, error) {
	key, err := req.Key()
	if err != nil {
		return nil, err
	}
	var resp *daed.TraceResponse
	err = cl.dispatch(ctx, tenant, key, func(ctx context.Context, c *daed.Client) error {
		r, err := c.Trace(ctx, req)
		if err == nil {
			resp = r
		}
		return err
	})
	return resp, err
}

// Stats fetches serving counters from the first node that answers.
func (cl *Cluster) Stats(ctx context.Context) (*daed.StatsSnapshot, error) {
	var resp *daed.StatsSnapshot
	err := cl.dispatch(ctx, "", "stats", func(ctx context.Context, c *daed.Client) error {
		r, err := c.Stats(ctx)
		if err == nil {
			resp = r
		}
		return err
	})
	return resp, err
}

// StatsAll fetches serving counters from every reachable member, keyed by
// the member's advertised URL. Partial results are returned; unreachable
// members are simply absent. Used by load drivers to sum cluster-wide
// repair and handoff counters at exit.
func (cl *Cluster) StatsAll(ctx context.Context) map[string]*daed.StatsSnapshot {
	out := make(map[string]*daed.StatsSnapshot)
	for _, u := range cl.Members() {
		c := &daed.Client{Base: u, HTTP: cl.cfg.HTTP}
		if s, err := c.Stats(ctx); err == nil {
			out[u] = s
		}
	}
	return out
}

// ClearQuarantine lifts the tenant's quarantines on every reachable node
// (quarantine state is per-node), returning the total cleared.
func (cl *Cluster) ClearQuarantine(ctx context.Context, tenant string) (int, error) {
	total := 0
	var lastErr error
	for _, u := range cl.Members() {
		c := &daed.Client{Base: u, Tenant: tenant, HTTP: cl.cfg.HTTP}
		n, err := c.ClearQuarantine(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		total += n
	}
	if total == 0 && lastErr != nil {
		return 0, lastErr
	}
	return total, nil
}
