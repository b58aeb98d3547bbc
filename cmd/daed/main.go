// Command daed serves the compile/simulate pipeline as a persistent
// HTTP/JSON service. One long-running process amortizes compilation, access
// generation, trace collection, and evaluation across requests:
//
//   - A content-addressed artifact store (and the trace cache beneath it)
//     persists under -dir, so a warm server answers repeat requests without
//     re-simulating — across restarts, and shared with any daerun/daebench
//     pointed at the same directory.
//   - Concurrent identical requests collapse onto a single pipeline
//     execution (singleflight); a client that disconnects releases only its
//     own interest, and the execution aborts when the last client is gone.
//   - An admission-controlled job queue bounds concurrent executions
//     (-workers) and the backlog (-queue-depth); beyond that the server
//     sheds load with 429 + Retry-After instead of letting latency collapse.
//   - Per-tenant quarantine (X-Dae-Tenant) contains one tenant's faults to
//     that tenant's requests; the process and other tenants stay healthy.
//
// Endpoints: POST /v1/simulate, POST /v1/compile, POST /v1/trace,
// GET /v1/stats, GET /v1/ring, POST /v1/members, DELETE /v1/quarantine,
// GET /healthz.
//
// Usage:
//
//	daed [-addr :8787] [-dir path] [-workers n] [-queue-depth n]
//	     [-run-workers n] [-default-timeout d] [-max-timeout d]
//	     [-max-run-time d] [-max-steps n] [-store-max-bytes n]
//	     [-node url [-peers url1,url2] [-replicas r] [-join url]]
//	     [-repair-interval d] [-drain-timeout d]
//
// Cluster mode: give every node its own advertised URL (-node) and either
// the other members' URLs (-peers) for a static boot, or -join with any
// live member's URL to enter an existing cluster at the next membership
// epoch (a -node with neither is a cluster of one that others can join).
// Content keys shard across the members on a shared consistent-hash ring
// with replication factor -replicas; nodes proxy requests for keys they do
// not own, replicate artifacts write-behind, pull an owned artifact they
// miss from a co-owner, and converge divergence through repair passes: one
// every -repair-interval (negative turns the periodic pass off), one after
// every membership change, and one at drain. On SIGTERM — or on being
// removed via POST /v1/members — a node drains gracefully: refusing new
// work with 503 + Retry-After, finishing in-flight requests, and handing
// its artifacts, hottest first, to the surviving owners before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dae/internal/daed"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so startup, serving, and
// graceful shutdown are testable. It serves until ctx is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8787", "listen address (host:port; port 0 picks a free port)")
	dir := fs.String("dir", "", "persist artifacts and traces under this directory (empty = memory only)")
	workers := fs.Int("workers", 0, "max concurrent pipeline executions (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "max executions waiting for a worker before 429s (0 = default 64, -1 = none)")
	runWorkers := fs.Int("run-workers", 0, "per-request collection parallelism (0 = 1)")
	defaultTimeout := fs.Duration("default-timeout", 0, "request wait bound when the request names none (0 = 60s)")
	maxTimeout := fs.Duration("max-timeout", 0, "ceiling on client-requested waits (0 = 5m)")
	maxRunTime := fs.Duration("max-run-time", 0, "hard bound on one pipeline execution (0 = 10m)")
	maxSteps := fs.Int64("max-steps", 0, "server-wide interpreter step-budget ceiling per task (0 = no limit)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "disk budget for the artifact store; LRU eviction above it (0 = unbounded)")
	node := fs.String("node", "", "this node's advertised base URL, e.g. http://10.0.0.1:8787 (cluster mode)")
	peers := fs.String("peers", "", "comma-separated base URLs of the other cluster members")
	replicas := fs.Int("replicas", 0, "copies of each artifact across the cluster (0 = 2, clamped to membership)")
	joinURL := fs.String("join", "", "URL of a live cluster member to join at startup (requires -node)")
	repairInterval := fs.Duration("repair-interval", 0, "period of the anti-entropy repair pass (0 = 30s, negative = no periodic pass)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain at shutdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "daed: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}
	if len(peerList) > 0 && *node == "" {
		fmt.Fprintln(stderr, "daed: -peers requires -node (this node's advertised URL)")
		return 2
	}
	if *joinURL != "" && *node == "" {
		fmt.Fprintln(stderr, "daed: -join requires -node (this node's advertised URL)")
		return 2
	}

	srv := daed.New(daed.Config{
		Dir:            *dir,
		Workers:        *workers,
		QueueDepth:     *queueDepth,
		RunWorkers:     *runWorkers,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxRunTime:     *maxRunTime,
		MaxSteps:       *maxSteps,
		StoreMaxBytes:  *storeMaxBytes,
		Self:           strings.TrimRight(*node, "/"),
		Peers:          peerList,
		Replicas:       *replicas,
		RepairInterval: *repairInterval,
		DrainTimeout:   *drainTimeout,
		Log:            log.New(stderr, "", log.LstdFlags),
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "daed:", err)
		return 1
	}
	hs := &http.Server{Handler: srv}
	fmt.Fprintf(stdout, "daed: serving on http://%s\n", ln.Addr())
	if *dir != "" {
		fmt.Fprintf(stdout, "daed: persistent store at %s\n", *dir)
	}
	if len(peerList) > 0 {
		fmt.Fprintf(stdout, "daed: cluster member %s with %d peer(s)\n", *node, len(peerList))
	}

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	if *joinURL != "" {
		// Join after the listener is up: the admin's gossip of the new epoch
		// must be able to reach this node, and the prior owners' repair
		// passes push its keys here.
		if err := joinCluster(ctx, strings.TrimRight(*joinURL, "/"), strings.TrimRight(*node, "/")); err != nil {
			fmt.Fprintln(stderr, "daed:", err)
			hs.Close()
			srv.Close()
			return 1
		}
		fmt.Fprintf(stdout, "daed: joined cluster via %s\n", *joinURL)
	}

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "daed:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	// Graceful drain: flip /healthz to draining and shed new work with 503 +
	// Retry-After, finish in-flight requests, then (in cluster mode) hand
	// artifacts, hottest first, to the surviving owners. Only after the drain completes does
	// the HTTP server itself close. In-flight pipelines whose clients vanish
	// still abort through the refcounted flight cancellation.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	srv.Drain(shutdownCtx)
	if err := hs.Shutdown(shutdownCtx); err != nil {
		_ = hs.Close()
	}
	srv.Close()
	fmt.Fprintln(stdout, "daed: shut down")
	return 0
}

// joinCluster asks a live member to admit this node, retrying briefly: at
// deploy time the rest of the cluster may still be coming up.
func joinCluster(ctx context.Context, member, self string) error {
	c := &daed.Client{Base: member}
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * 500 * time.Millisecond):
			}
		}
		jctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := c.Join(jctx, self)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("join via %s: %w", member, lastErr)
}
