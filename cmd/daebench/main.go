// Command daebench regenerates the paper's evaluation artifacts from the
// simulated machine: Table 1, Figure 3 (a/b/c), Figure 4 (Cholesky, FFT,
// LibQ), and the §6.1 zero-transition-latency projection.
//
// Traces are collected once through a parallel, cached pipeline (-j bounds
// the worker count, -cache-dir persists traces across invocations) and every
// experiment evaluates the shared traces; independent experiments run
// concurrently and print in a fixed order. A worker collects one benchmark
// at a time: one build, and one pass over its task batches that traces the
// versions the cache lacks, interpreting each execute phase once for all of
// them.
//
// The pipeline is hardened: -timeout bounds the whole invocation, -run-timeout
// bounds each of the 7 benchmark collections, and -max-steps bounds each
// simulated task's interpreter steps. A run that fails — trap,
// budget, timeout, panic — does not take the process down mid-collection;
// daebench finishes the surviving runs, prints a per-run failure summary
// (app, run kind, fault class; -v adds captured panic stacks), and exits
// nonzero. With -exp all, a failing experiment does not stop the others:
// every surviving experiment prints and the failures are reported together.
//
// -degrade selects the runtime supervision mode: "access" (default) contains
// access-phase faults by quarantining the task type's access variant and
// re-running it coupled; "full" additionally contains execute-phase faults
// to the failing task; "off" aborts the run on any fault (the legacy
// behavior). A collection that completes degraded prints a summary table
// naming the quarantined task types and exits with status 3.
//
// Exit status: 0 clean, 1 failed runs or experiments, 2 usage, 3 completed
// degraded.
//
// Usage:
//
//	daebench [-exp table1|fig3|fig4|zerolat|refined|strategies|all] [-cores 4]
//	         [-csv dir] [-j N] [-cache-dir dir] [-timeout d] [-run-timeout d]
//	         [-max-steps n] [-degrade off|access|full] [-inject rules] [-v]
//	         [-cpuprofile f] [-memprofile f] [-server url[,url...] [-tenant name]]
//
// Every run executes on the interpreter's register-bytecode VM. Its
// differential oracle, the tree executor, and the dynamic op-pair histogram
// measured on it are reached from the tests (`go test -run
// TestOpStatsHistogram -v ./internal/rt/` prints the histogram of the 21
// runs).
//
// -server collects the traces remotely from a daed server (or cluster:
// comma-separate the URLs) instead of simulating locally; the experiment
// tables are computed and rendered client-side from the fetched traces, so
// the output is byte-identical to a local run of the same flags. A warm
// server answers from its artifact store without re-simulating. -tenant
// names the requesting tenant for the server's per-tenant quarantine.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"

	"dae/internal/bench"
	daepass "dae/internal/dae"
	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/dvfs"
	"dae/internal/eval"
	"dae/internal/fault/inject"
	"dae/internal/rt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the exit paths are testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("daebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: table1, fig3, fig4, zerolat, refined, strategies, all")
	cores := fs.Int("cores", 4, "number of simulated cores")
	csvDir := fs.String("csv", "", "also write the selected experiments as CSV files into this directory")
	jobs := fs.Int("j", 0, "max concurrent benchmark collections (each traces a benchmark's three versions in one pass) and experiments (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache-dir", "", "persist collected traces in this directory and reuse them across runs")
	timeout := fs.Duration("timeout", 0, "abort the whole invocation after this duration (0 = no limit)")
	runTimeout := fs.Duration("run-timeout", 0, "abort any single benchmark's collection (its build and the trace pass over its versions) after this duration (0 = no limit)")
	maxSteps := fs.Int64("max-steps", 0, "abort any simulated task after this many interpreter steps (0 = no limit)")
	degrade := fs.String("degrade", "access", "runtime supervision mode: off (abort on fault), access (quarantine faulting access variants), full (also contain execute faults)")
	injectSpec := fs.String("inject", "", "fault-injection rules, \"site,app,kind,task,mode[,trap]\" separated by ';' (testing)")
	verbose := fs.Bool("v", false, "verbose failure reports (include captured panic stacks)")
	serverURL := fs.String("server", "", "collect traces remotely from daed at this base URL; comma-separate for a cluster")
	tenant := fs.String("tenant", "", "tenant identity sent to the daed server (with -server)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "daebench:", err)
		return 1
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "daebench:", err)
		return 2
	}
	degradeMode, err := rt.ParseDegradeMode(*degrade)
	if err != nil {
		return usage(err)
	}
	injectRules, err := inject.ParseRules(*injectSpec)
	if err != nil {
		return usage(err)
	}
	var cl *client.Cluster
	if *serverURL != "" {
		for name, set := range map[string]bool{
			"-cache-dir": *cacheDir != "", "-run-timeout": *runTimeout != 0,
			"-inject": *injectSpec != "",
		} {
			if set {
				fmt.Fprintf(stderr, "daebench: %s configures the local simulation; it has no meaning with -server\n", name)
				return 2
			}
		}
		cl = client.New(client.Config{Nodes: splitNodes(*serverURL)})
	}

	// daebench is a short-lived batch process whose footprint is dominated by
	// trace buffers that live to the end anyway; a lazier GC pace trades a
	// bounded amount of heap headroom for collection passes that otherwise
	// burn a measurable slice of a cold run (visible as GC work in the
	// -cpuprofile output). Benchmarks of library packages are unaffected.
	debug.SetGCPercent(400)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	cfg := rt.DefaultTraceConfig()
	cfg.Cores = *cores
	cfg.MaxSteps = *maxSteps
	cfg.Degrade = degradeMode
	// The in-process cache is always on: it lets the refined experiment
	// reuse the coupled and manual traces of the main collection. -cache-dir
	// additionally persists entries across daebench invocations.
	opts := eval.CollectOptions{
		Workers:    *jobs,
		Cache:      eval.NewTraceCache(*cacheDir),
		RunTimeout: *runTimeout,
	}
	if len(injectRules) > 0 {
		in := inject.New(injectRules...)
		opts.Inject = in.Hook()
		opts.InjectPhase = in.PhaseFunc()
	}
	// collect gathers the full trace set — simulated locally or fetched from
	// the cluster; the refined experiment re-collects with profile-guided
	// prefetch pruning enabled.
	collect := func(refine bool) ([]*eval.AppData, error) {
		if cl != nil {
			tmpl := daed.TraceRequest{
				Cores: *cores, Refine: refine, MaxSteps: *maxSteps,
				Degrade: *degrade, TimeoutMs: timeout.Milliseconds(),
			}
			return collectRemote(ctx, cl, *tenant, tmpl, effectiveWorkers(*jobs))
		}
		o := opts
		if refine {
			o.Refine = &eval.RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
		}
		return eval.CollectAllWith(ctx, cfg, o)
	}
	if cl != nil {
		fmt.Fprintf(stderr, "daebench: fetching 7 benchmarks x 3 versions from %s...\n", *serverURL)
	} else {
		fmt.Fprintf(stderr, "daebench: tracing 7 benchmarks x 3 versions on %d simulated cores (%d workers)...\n",
			cfg.Cores, effectiveWorkers(*jobs))
	}
	data, err := collect(false)
	if err != nil {
		return failRuns(stderr, "daebench", err, *verbose)
	}
	m := rt.DefaultMachine()

	want := func(name string) bool { return *exp == name || *exp == "all" }

	writeCSV := func(name string, write func(f *os.File) error) error {
		if *csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := write(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "daebench: wrote %s\n", filepath.Join(*csvDir, name))
		return nil
	}

	// Experiments are independent passes over the shared traces; each
	// renders into its own buffer so they can run concurrently and still
	// print in the fixed order below.
	type experiment struct {
		name string
		run  func(w io.Writer) error
	}
	var exps []experiment
	if want("table1") {
		exps = append(exps, experiment{"table1", func(w io.Writer) error {
			rows := eval.Table1(data, m)
			fmt.Fprint(w, eval.FormatTable1(rows), "\n")
			return writeCSV("table1.csv", func(f *os.File) error { return eval.WriteTable1CSV(f, rows) })
		}})
	}
	if want("fig3") {
		exps = append(exps, experiment{"fig3", func(w io.Writer) error {
			rows := eval.Fig3(data, m)
			fmt.Fprint(w, eval.FormatFig3(rows, "Time"), "\n")
			fmt.Fprint(w, eval.FormatFig3(rows, "Energy"), "\n")
			fmt.Fprint(w, eval.FormatFig3(rows, "EDP"), "\n")
			fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), "headline (500ns transitions)"), "\n")
			for _, metric := range []string{"Time", "Energy", "EDP"} {
				if err := writeCSV("fig3_"+metric+".csv", func(f *os.File) error { return eval.WriteFig3CSV(f, rows, metric) }); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	if want("fig4") {
		exps = append(exps, experiment{"fig4", func(w io.Writer) error {
			for _, name := range []string{"Cholesky", "FFT", "LibQ"} {
				for _, d := range data {
					if d.Name == name {
						p := eval.Fig4(d, m)
						fmt.Fprint(w, eval.FormatFig4(p), "\n")
						if err := writeCSV("fig4_"+name+".csv", func(f *os.File) error { return eval.WriteFig4CSV(f, p) }); err != nil {
							return err
						}
					}
				}
			}
			return nil
		}})
	}
	if want("zerolat") {
		exps = append(exps, experiment{"zerolat", func(w io.Writer) error {
			ideal := m
			ideal.DVFS = dvfs.Ideal()
			rows := eval.Fig3(data, ideal)
			fmt.Fprint(w, eval.FormatFig3(rows, "EDP"), "\n")
			fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), "headline (zero-latency transitions)"), "\n")
			return nil
		}})
	}
	if want("refined") {
		exps = append(exps, experiment{"refined", func(w io.Writer) error {
			// The §7 future-work pipeline: compiler DAE with profile-guided
			// prefetch pruning applied before tracing. Only the compiler-DAE
			// decoupled runs differ, so the shared cache serves the coupled
			// and manual traces without re-simulation.
			fmt.Fprintln(stderr, "daebench: re-tracing with profile-refined access versions...")
			refined, err := collect(true)
			if err != nil {
				return err
			}
			rows := eval.Fig3(refined, m)
			fmt.Fprint(w, eval.FormatFig3(rows, "EDP"), "\n")
			fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), "headline (refined, 500ns)"), "\n")
			return nil
		}})
	}
	if want("strategies") {
		exps = append(exps, experiment{"strategies", func(w io.Writer) error {
			fmt.Fprint(w, eval.FormatStrategies(data))
			return nil
		}})
	}

	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	sem := make(chan struct{}, effectiveWorkers(*jobs))
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = exps[i].run(&bufs[i])
		}(i)
	}
	wg.Wait()
	// A failed experiment does not mask the others: every surviving
	// experiment still prints, and all failures are reported together.
	failed := 0
	for i := range exps {
		if errs[i] != nil {
			failed++
			printFailure(stderr, "daebench", fmt.Errorf("%s: %w", exps[i].name, errs[i]), *verbose)
			continue
		}
		stdout.Write(bufs[i].Bytes())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "daebench: %d of %d experiment(s) failed\n", failed, len(exps))
		return 1
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		f.Close()
	}
	if rows := eval.DegradationRows(data); len(rows) > 0 {
		fmt.Fprintf(stderr, "daebench: %s", eval.FormatDegradation(rows))
		return 3
	}
	return 0
}

// printFailure renders one failure to stderr: the per-run summary when the
// error carries typed RunErrors (with panic stacks under -v), the plain
// error otherwise.
func printFailure(stderr io.Writer, prog string, err error, verbose bool) {
	s := eval.FormatFailures(err)
	if verbose {
		s = eval.FormatFailuresVerbose(err)
	}
	if s != "" {
		fmt.Fprintf(stderr, "%s: %s", prog, s)
		if !strings.HasSuffix(s, "\n") {
			fmt.Fprintln(stderr)
		}
		return
	}
	fmt.Fprintln(stderr, prog+":", err)
}

// failRuns prints a collection failure and returns exit status 1.
func failRuns(stderr io.Writer, prog string, err error, verbose bool) int {
	printFailure(stderr, prog, err, verbose)
	return 1
}

// collectRemote fetches every benchmark's collected trace set from the daed
// cluster, preserving the canonical benchmark order so the experiments (and
// their rendered output) match a local run byte for byte.
func collectRemote(ctx context.Context, cl *client.Cluster, tenant string, tmpl daed.TraceRequest, workers int) ([]*eval.AppData, error) {
	apps := bench.Apps()
	data := make([]*eval.AppData, len(apps))
	errs := make([]error, len(apps))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, app := range apps {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			req := tmpl
			req.App = name
			resp, err := cl.Trace(ctx, tenant, &req)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				return
			}
			d, err := resp.Data.Decode()
			if err != nil {
				errs[i] = fmt.Errorf("%s: decoding trace set: %w", name, err)
				return
			}
			data[i] = d
		}(i, app.Name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return data, nil
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

// effectiveWorkers resolves the -j flag's default.
func effectiveWorkers(j int) int {
	if j > 0 {
		return j
	}
	return runtime.GOMAXPROCS(0)
}
