// Command daerun executes one evaluation benchmark under the simulated DAE
// runtime and prints time/energy/EDP for the coupled, manual-DAE, and
// compiler-DAE versions across the frequency policies.
//
// The pipeline is hardened: -timeout bounds the whole invocation,
// -run-timeout bounds each of the three version collections, and -max-steps
// bounds each simulated task's interpreter steps. A failed run — trap,
// budget, timeout, panic — produces a per-run failure summary (app, run
// kind, fault class; -v adds captured panic stacks) on stderr and a nonzero
// exit.
//
// -degrade selects the runtime supervision mode: "access" (default)
// contains access-phase faults by quarantining the task type's access
// variant and re-running it coupled at the fixed frequency; "full"
// additionally contains execute-phase faults to the failing task; "off"
// aborts the run on any fault. A run that completes degraded prints a
// summary naming the quarantined task types and exits with status 3.
//
// Exit status: 0 clean, 1 failed runs, 2 usage, 3 completed degraded.
//
// Usage:
//
//	daerun [-cores 4] [-zero-latency] [-timeout d] [-run-timeout d]
//	       [-max-steps n] [-degrade off|access|full] [-inject rules] [-v]
//	       [LU|Cholesky|FFT|LBM|LibQ|Cigar|CG]
//
// Every run executes on the interpreter's register-bytecode VM; the tree
// executor that checks it is reached from the tests only.
//
// -server runs the evaluation remotely against a daed server instead of
// simulating locally: the report is byte-identical to a local run of the
// same flags (one formatter renders both), but a warm server answers from
// its content-addressed artifact store without re-simulating. -tenant names
// the requesting tenant for the server's per-tenant quarantine. -server
// accepts a comma-separated node list; requests then route through the
// failover-aware cluster client, so a dead or draining node costs a
// failover, not the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dae/internal/bench"
	daepass "dae/internal/dae"
	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/dvfs"
	"dae/internal/eval"
	"dae/internal/fault"
	"dae/internal/fault/inject"
	"dae/internal/rt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the exit paths are testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daerun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cores := fs.Int("cores", 4, "number of simulated cores")
	zeroLat := fs.Bool("zero-latency", false, "assume instantaneous DVFS transitions (future hardware, paper sec. 6.1)")
	refine := fs.Bool("refine", false, "apply profile-guided prefetch pruning to the compiler-generated access versions")
	traceOut := fs.String("trace-out", "", "save the compiler-DAE trace as JSON to this file")
	jobs := fs.Int("j", 0, "max concurrent trace collections (0 = GOMAXPROCS); the three versions trace in parallel")
	cacheDir := fs.String("cache-dir", "", "persist collected traces in this directory and reuse them across runs")
	timeout := fs.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	runTimeout := fs.Duration("run-timeout", 0, "abort any single version's collection after this duration (0 = no limit)")
	maxSteps := fs.Int64("max-steps", 0, "abort any simulated task after this many interpreter steps (0 = no limit)")
	degrade := fs.String("degrade", "access", "runtime supervision mode: off (abort on fault), access (quarantine faulting access variants), full (also contain execute faults)")
	injectSpec := fs.String("inject", "", "fault-injection rules, \"site,app,kind,task,mode[,trap]\" separated by ';' (testing)")
	verbose := fs.Bool("v", false, "verbose failure reports (include captured panic stacks)")
	serverURL := fs.String("server", "", "evaluate remotely against daed at this base URL; comma-separate for a cluster")
	tenant := fs.String("tenant", "", "tenant identity sent to the daed server (with -server)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "daerun:", err)
		return 1
	}
	degradeMode, err := rt.ParseDegradeMode(*degrade)
	if err != nil {
		fmt.Fprintln(stderr, "daerun:", err)
		return 2
	}
	injectRules, err := inject.ParseRules(*injectSpec)
	if err != nil {
		fmt.Fprintln(stderr, "daerun:", err)
		return 2
	}

	name := "LU"
	if fs.NArg() > 0 {
		name = fs.Arg(0)
	}
	app, err := bench.AppByName(name)
	if err != nil {
		return fail(err)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *serverURL != "" {
		for name, set := range map[string]bool{
			"-j": *jobs != 0, "-cache-dir": *cacheDir != "",
			"-run-timeout": *runTimeout != 0, "-trace-out": *traceOut != "",
		} {
			if set {
				fmt.Fprintf(stderr, "daerun: %s configures the local simulation; it has no meaning with -server\n", name)
				return 2
			}
		}
		req := &daed.SimulateRequest{
			App:         app.Name,
			Cores:       *cores,
			ZeroLatency: *zeroLat,
			Refine:      *refine,
			MaxSteps:    *maxSteps,
			Degrade:     *degrade,
			TimeoutMs:   timeout.Milliseconds(),
			Inject:      *injectSpec,
		}
		return runRemote(ctx, *serverURL, *tenant, req, stdout, stderr)
	}

	cfg := rt.DefaultTraceConfig()
	cfg.Cores = *cores
	cfg.MaxSteps = *maxSteps
	cfg.Degrade = degradeMode
	fmt.Fprintf(stdout, "tracing %s on %d cores (coupled, manual DAE, compiler DAE)...\n", app.Name, cfg.Cores)
	opts := eval.CollectOptions{Workers: *jobs, RunTimeout: *runTimeout}
	if *cacheDir != "" {
		opts.Cache = eval.NewTraceCache(*cacheDir)
	}
	if *refine {
		opts.Refine = &eval.RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	}
	if len(injectRules) > 0 {
		in := inject.New(injectRules...)
		opts.Inject = in.Hook()
		opts.InjectPhase = in.PhaseFunc()
	}
	data, err := eval.CollectWith(ctx, app, cfg, opts)
	if err != nil {
		s := eval.FormatFailures(err)
		if *verbose {
			s = eval.FormatFailuresVerbose(err)
		}
		if s != "" {
			fmt.Fprintf(stderr, "daerun: %s", s)
			if !strings.HasSuffix(s, "\n") {
				fmt.Fprintln(stderr)
			}
			return 1
		}
		return fail(err)
	}

	m := rt.DefaultMachine()
	if *zeroLat {
		m.DVFS = dvfs.Ideal()
	}

	fmt.Fprint(stdout, eval.FormatRunReport(data, m))

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		if err := rt.SaveTrace(f, data.Auto); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
	}
	if rows := eval.DegradationRows([]*eval.AppData{data}); len(rows) > 0 {
		fmt.Fprintf(stderr, "daerun: %s", eval.FormatDegradation(rows))
		return 3
	}
	return 0
}

// runRemote evaluates the benchmark against a daed server or cluster. The
// printed report is byte-identical to the local simulation's: the server
// renders with the same eval.FormatRunReport the local path uses.
func runRemote(ctx context.Context, base, tenant string, req *daed.SimulateRequest, stdout, stderr io.Writer) int {
	cl := client.New(client.Config{Nodes: splitNodes(base)})
	fmt.Fprintf(stdout, "tracing %s on %d cores (coupled, manual DAE, compiler DAE)...\n", req.App, coresOrDefault(req.Cores))
	resp, err := cl.Simulate(ctx, tenant, req)
	if err != nil {
		var re *daed.RemoteError
		if errors.As(err, &re) && re.Saturated() {
			fmt.Fprintf(stderr, "daerun: server saturated, retry after %v: %v\n", re.RetryAfter, err)
			return 1
		}
		if errors.Is(err, fault.ErrTimeout) {
			fmt.Fprintf(stderr, "daerun: remote evaluation timed out: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "daerun:", err)
		return 1
	}
	fmt.Fprint(stdout, resp.Report)
	if resp.Degraded {
		tasks := make([]string, 0, len(resp.Quarantined))
		for task, kind := range resp.Quarantined {
			tasks = append(tasks, fmt.Sprintf("%s (%s)", task, kind))
		}
		sort.Strings(tasks)
		fmt.Fprintf(stderr, "daerun: completed degraded: quarantined task types: %s\n",
			strings.Join(tasks, ", "))
		return 3
	}
	return 0
}

// splitNodes parses a comma-separated -server value into a node list.
func splitNodes(s string) []string {
	var nodes []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			nodes = append(nodes, strings.TrimRight(u, "/"))
		}
	}
	return nodes
}

// coresOrDefault mirrors the server's defaulting for the progress line.
func coresOrDefault(n int) int {
	if n <= 0 {
		return rt.DefaultTraceConfig().Cores
	}
	return n
}
