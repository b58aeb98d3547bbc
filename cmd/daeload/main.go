// Command daeload is the load generator for a daed server. It drives
// thousands of concurrent compile/simulate requests with a seeded,
// reproducible mix of hot keys (repeat requests that should be served from
// the artifact store or collapsed onto in-flight executions), cold keys
// (distinct configurations that must execute), client cancellations, and
// injected faults, then reports throughput, latency percentiles, and the
// singleflight collapse ratio.
//
// Every request is accounted for: the run fails if any request is lost —
// the sum of ok + rejected(429) + canceled + failed must equal -n.
//
// -server accepts a comma-separated list of nodes; requests then route
// through the failover-aware cluster client: 429 admission sheds are slept
// out per the server's Retry-After hint (with seeded jitter) and re-issued
// — counted as sheds and retries, not losses — and node deaths mid-run
// cost failovers, not accepted requests. A request is "rejected" only when
// the shed budget is exhausted.
//
// A membership-churn window (-churn from-until, request indices) marks the
// stretch of the run during which an operator is concurrently joining or
// removing cluster nodes; those requests are reported as their own column
// (issued/ok) so a drill can assert that churn cost zero accepted requests.
// At exit the summary also scrapes the cluster's self-healing counters —
// repair-pass pushes (periodic, join and drain passes) and drops, and
// read-repair pulls — summed across every reachable member.
//
// Usage:
//
//	daeload -server http://host:port[,http://host2:port] [-n 2000] [-c 128]
//	        [-apps CG,FFT,LibQ] [-hot 0.9] [-cancel 0] [-inject 0]
//	        [-compile 0.05] [-tenants 4] [-seed 1] [-timeout-ms 120000]
//	        [-churn from-until] [-attempt-timeout d] [-json file]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/fault"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// request is one precomputed unit of load. The whole schedule is derived
// from -seed before any traffic flows, so a run is reproducible.
type request struct {
	sim     *daed.SimulateRequest
	comp    *daed.CompileRequest
	tenant  string
	cancelD time.Duration // > 0: cancel the request after this long
}

// result classifies one completed request.
type result struct {
	outcome   string // ok, rejected, canceled, failed
	storeHit  bool
	collapsed bool
	degraded  bool
	churn     bool // issued inside the membership-churn window
	latencyMs float64
}

// summary is the machine-readable report (-json).
type summary struct {
	Requests   int     `json:"requests"`
	Concurrent int     `json:"concurrent"`
	OK         int     `json:"ok"`
	StoreHits  int     `json:"store_hits"`
	Collapsed  int     `json:"collapsed"`
	Degraded   int     `json:"degraded"`
	Rejected   int     `json:"rejected_429"`
	Canceled   int     `json:"canceled"`
	Failed     int     `json:"failed"`
	WallSec    float64 `json:"wall_seconds"`
	Throughput float64 `json:"requests_per_second"`
	P50Ms      float64 `json:"latency_p50_ms"`
	P99Ms      float64 `json:"latency_p99_ms"`
	// Sheds/Retries/Failovers come from the cluster client: 429s slept out
	// and re-issued, and node switches forced by failures. They are
	// resilience work, not request outcomes — the outcome columns above
	// still account for every request exactly once.
	Sheds     int64 `json:"sheds"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	Redirects int64 `json:"redirects"`
	// ChurnIssued/ChurnOK account for the requests issued inside the
	// -churn window — the stretch where membership was changing under the
	// load. ChurnOK == ChurnIssued - (rejected/canceled inside the window)
	// is the zero-lost-under-churn check in drill form.
	ChurnIssued int `json:"churn_issued,omitempty"`
	ChurnOK     int `json:"churn_ok,omitempty"`
	// Self-healing counters scraped from every reachable member at exit.
	RepairPushed  int64 `json:"repair_pushed"`
	RepairDropped int64 `json:"repair_dropped"`
	ReadRepairs   int64 `json:"read_repairs"`
	// Executions is the server-side pipeline execution count over the run;
	// CollapseRatio is successful requests per execution — how much work
	// the store and singleflight absorbed.
	Executions    int64   `json:"server_executions"`
	CollapseRatio float64 `json:"collapse_ratio"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daeload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "", "daed base URL(s), comma-separated for a cluster (required)")
	n := fs.Int("n", 2000, "total requests to issue")
	conc := fs.Int("c", 128, "concurrent in-flight requests")
	appsFlag := fs.String("apps", "CG,FFT,LibQ", "comma-separated benchmark mix")
	hot := fs.Float64("hot", 0.9, "fraction of requests on hot keys (default configuration, shared by all)")
	cancelFrac := fs.Float64("cancel", 0, "fraction of requests canceled client-side mid-flight")
	injectFrac := fs.Float64("inject", 0, "fraction of requests carrying an injected access fault (chaos tenants)")
	compileFrac := fs.Float64("compile", 0.05, "fraction of requests hitting /v1/compile instead of /v1/simulate")
	tenants := fs.Int("tenants", 4, "number of load tenants to spread requests across")
	seed := fs.Int64("seed", 1, "PRNG seed for the request schedule")
	timeoutMs := fs.Int64("timeout-ms", 120000, "per-request timeout budget sent to the server")
	churn := fs.String("churn", "", "membership-churn window as request indices, e.g. 500-1500")
	attemptTimeout := fs.Duration("attempt-timeout", 0, "per-attempt budget before failing over off a hung node (0 = none)")
	jsonOut := fs.String("json", "", "also write the summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	churnFrom, churnUntil := -1, -1
	if *churn != "" {
		if _, err := fmt.Sscanf(*churn, "%d-%d", &churnFrom, &churnUntil); err != nil || churnFrom < 0 || churnUntil <= churnFrom {
			fmt.Fprintf(stderr, "daeload: bad -churn window %q (want from-until, from < until)\n", *churn)
			return 2
		}
	}
	if *server == "" {
		fmt.Fprintln(stderr, "daeload: -server is required")
		return 2
	}
	if *n <= 0 || *conc <= 0 || *tenants <= 0 {
		fmt.Fprintln(stderr, "daeload: -n, -c and -tenants must be positive")
		return 2
	}
	apps := strings.Split(*appsFlag, ",")
	for i := range apps {
		apps[i] = strings.TrimSpace(apps[i])
	}
	var nodes []string
	for _, u := range strings.Split(*server, ",") {
		if u = strings.TrimSpace(u); u != "" {
			nodes = append(nodes, strings.TrimRight(u, "/"))
		}
	}
	cl := client.New(client.Config{Nodes: nodes, BackoffSeed: uint64(*seed), AttemptTimeout: *attemptTimeout})

	// Build the whole schedule up front from the seed: the same flags
	// always generate the same traffic.
	rng := rand.New(rand.NewSource(*seed))
	reqs := make([]request, *n)
	for i := range reqs {
		app := apps[rng.Intn(len(apps))]
		r := request{tenant: fmt.Sprintf("load-%d", rng.Intn(*tenants))}
		switch {
		case rng.Float64() < *compileFrac:
			r.comp = &daed.CompileRequest{App: app, TimeoutMs: *timeoutMs}
		default:
			sim := &daed.SimulateRequest{App: app, TimeoutMs: *timeoutMs}
			if rng.Float64() >= *hot {
				// Cold key: a distinct core count forces a distinct content
				// key (it changes the trace-config fingerprint).
				sim.Cores = 2 + rng.Intn(6)
			}
			if rng.Float64() < *injectFrac {
				sim.Inject = fmt.Sprintf("access-phase,%s,compiler-dae,,trap!", app)
				// Chaos tenants keep injected poison away from the load
				// tenants' quarantine ledgers.
				r.tenant = fmt.Sprintf("chaos-%d", rng.Intn(*tenants))
			}
			r.sim = sim
		}
		if r.sim != nil && rng.Float64() < *cancelFrac {
			r.cancelD = time.Duration(1+rng.Intn(25)) * time.Millisecond
		}
		reqs[i] = r
	}

	results := make([]result, *n)
	var wg sync.WaitGroup
	idx := make(chan int)
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = issue(ctx, cl, reqs[i])
				results[i].churn = i >= churnFrom && i < churnUntil
			}
		}()
	}
	for i := 0; i < *n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
		}
	}
	close(idx)
	wg.Wait()
	wall := time.Since(start)

	sum := summarize(results, *conc, wall)
	c := cl.Counters()
	sum.Sheds, sum.Retries, sum.Failovers, sum.Redirects = c.Sheds, c.Retries, c.Failovers, c.Redirects
	scrapeCluster(ctx, cl, sum)
	report(stdout, *server, sum)
	if *jsonOut != "" {
		b, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "daeload:", err)
			return 1
		}
	}
	if lost := *n - (sum.OK + sum.Rejected + sum.Canceled + sum.Failed); lost != 0 {
		fmt.Fprintf(stderr, "daeload: %d request(s) lost (unaccounted for)\n", lost)
		return 1
	}
	if sum.Failed > 0 {
		fmt.Fprintf(stderr, "daeload: %d request(s) failed\n", sum.Failed)
		return 1
	}
	return 0
}

// issue fires one scheduled request through the cluster client and
// classifies the outcome. A 429 surfacing here means the client already
// slept out the shed budget — only then does it count as rejected.
func issue(ctx context.Context, cl *client.Cluster, r request) result {
	if r.cancelD > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cancelD)
		defer cancel()
	}
	start := time.Now()
	var (
		err error
		res result
	)
	if r.comp != nil {
		var resp *daed.CompileResponse
		resp, err = cl.Compile(ctx, r.tenant, r.comp)
		if err == nil {
			res.storeHit, res.collapsed = resp.CacheHit, resp.Collapsed
		}
	} else {
		var resp *daed.SimulateResponse
		resp, err = cl.Simulate(ctx, r.tenant, r.sim)
		if err == nil {
			res.storeHit, res.collapsed, res.degraded = resp.CacheHit, resp.Collapsed, resp.Degraded
		}
	}
	res.latencyMs = float64(time.Since(start)) / float64(time.Millisecond)
	var re *daed.RemoteError
	switch {
	case err == nil:
		res.outcome = "ok"
	case errors.As(err, &re) && re.Saturated():
		res.outcome = "rejected"
	case r.cancelD > 0 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, fault.ErrTimeout)):
		res.outcome = "canceled"
	default:
		res.outcome = "failed"
	}
	return res
}

func summarize(results []result, conc int, wall time.Duration) *summary {
	sum := &summary{Requests: len(results), Concurrent: conc, WallSec: wall.Seconds()}
	var lat []float64
	for _, r := range results {
		if r.churn {
			sum.ChurnIssued++
		}
		switch r.outcome {
		case "ok":
			sum.OK++
			if r.storeHit {
				sum.StoreHits++
			}
			if r.collapsed {
				sum.Collapsed++
			}
			if r.degraded {
				sum.Degraded++
			}
			if r.churn {
				sum.ChurnOK++
			}
			lat = append(lat, r.latencyMs)
		case "rejected":
			sum.Rejected++
		case "canceled":
			sum.Canceled++
		default:
			sum.Failed++
		}
	}
	if sum.WallSec > 0 {
		sum.Throughput = float64(sum.Requests) / sum.WallSec
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		sum.P50Ms = lat[len(lat)/2]
		sum.P99Ms = lat[min(len(lat)-1, len(lat)*99/100)]
	}
	return sum
}

// scrapeCluster sums server-side counters — executions for the collapse
// ratio, and the self-healing counters — across every reachable member.
// Unreachable members (a node killed mid-drill) are simply absent.
func scrapeCluster(ctx context.Context, cl *client.Cluster, sum *summary) {
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for _, st := range cl.StatsAll(sctx) {
		sum.Executions += st.Executions
		sum.RepairPushed += st.RepairPushed
		sum.RepairDropped += st.RepairDropped
		sum.ReadRepairs += st.ReadRepairs
	}
	if sum.Executions > 0 {
		sum.CollapseRatio = float64(sum.OK) / float64(sum.Executions)
	}
}

func report(w io.Writer, server string, s *summary) {
	fmt.Fprintf(w, "daeload: %d requests (%d concurrent) in %.2fs against %s — %.1f req/s\n",
		s.Requests, s.Concurrent, s.WallSec, server, s.Throughput)
	fmt.Fprintf(w, "  ok %d (store-hits %d, collapsed %d, degraded %d)  rejected(429) %d  canceled %d  failed %d\n",
		s.OK, s.StoreHits, s.Collapsed, s.Degraded, s.Rejected, s.Canceled, s.Failed)
	fmt.Fprintf(w, "  sheds %d  retries %d  failovers %d  redirects %d\n", s.Sheds, s.Retries, s.Failovers, s.Redirects)
	if s.ChurnIssued > 0 {
		fmt.Fprintf(w, "  churn-window %d issued, %d ok\n", s.ChurnIssued, s.ChurnOK)
	}
	fmt.Fprintf(w, "  latency p50 %.2fms  p99 %.2fms\n", s.P50Ms, s.P99Ms)
	if s.Executions > 0 {
		fmt.Fprintf(w, "  server executions %d — singleflight/store collapse %.1fx\n",
			s.Executions, s.CollapseRatio)
	}
	if s.RepairPushed+s.RepairDropped+s.ReadRepairs > 0 {
		fmt.Fprintf(w, "  self-healing: repair-pushed %d  repair-dropped %d  read-repairs %d\n",
			s.RepairPushed, s.RepairDropped, s.ReadRepairs)
	}
}
