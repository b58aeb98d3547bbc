// Command perfbench is the repository's benchmark. One invocation runs one
// workload in a single process, checks that every output is correct, and
// prints one JSON object as its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, ops_per_s,
// lat_p50_ms, lat_p99_ms, alloc_kb_per_op, peak_rss_mb);
// with -trace 1 they are the per-layer ones, measured by calling each
// layer's public functions from this package (nothing inside the program is
// instrumented), and explanatory values with no better direction go to
// standard error.
//
// Workloads:
//
//	repro-cold   one op = a full cold paper reproduction (daebench -exp all
//	             -cache-dir <empty dir>)
//	serve-trace  two closed-loop clients of /v1/trace store hits against an
//	             in-process daed server over loopback
//
// Usage:
//
//	perfbench -workload repro-cold -seed 1 -seconds 30 -trace 0
//	perfbench -summarize results.jsonl   # median and IQR per metric
//
// run.sh builds the binary inside the checkout and adds -spread k, which
// runs k separate processes and summarizes them. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps int
	// dir is the scratch directory for trace caches and stores; the caller
	// removes it.
	dir string
	// apps, when non-empty, restricts serve-trace's key space (tests).
	apps []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: repro-cold or serve-trace")
	seed := fs.Uint64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 30, "measured duration of the run")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the traced run and prints per-layer metrics")
	summarize := fs.String("summarize", "", "print median and interquartile distance of every metric in this file of result lines, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarize != "" {
		if err := summarizeFile(*summarize, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := workloads[*workload]; !ok || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload repro-cold|serve-trace, -trace 0|1 and -seconds > 0\n")
		return 2
	}
	// Load never exceeds the host's CPUs: GOMAXPROCS is capped at nproc, and
	// every worker count below derives from it.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	// Scratch space lives inside the working directory (the checkout), under
	// the build directory that .gitignore already excludes.
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := options{
		workload:  *workload,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		setupReps: 5,
		dir:       dir,
	}
	res, err := workloads[o.workload](context.Background(), o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: op failed:", f)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	names := make([]string, 0, len(res.notes))
	for name := range res.notes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stderr, "perfbench: note: %s = %g %s\n", name, res.notes[name].Value, res.notes[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, options) (*result, error){
	"repro-cold":  runRepro,
	"serve-trace": runServeTrace,
}
