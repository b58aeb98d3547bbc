package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"dae/internal/bench"
	daepass "dae/internal/dae"
	"dae/internal/dvfs"
	"dae/internal/eval"
	"dae/internal/rt"
)

// reproduce is one paper reproduction, the work of `daebench -exp all
// -cache-dir cacheDir -j workers`: collect the 7 apps x 3 versions through a
// fresh trace cache over cacheDir, render every experiment concurrently
// (the refined one re-collects the compiler-DAE runs with profile-guided
// pruning), and return the report in daebench's fixed order. sp, when
// non-nil, receives the busy time of the collect and report spans.
//
// It repeats the experiment assembly of cmd/daebench/main.go (the collect
// closure, the experiment list, the concurrent render and the fixed order,
// lines 197-336 at the time of writing) call for call, without the CSV
// output and the remote collection, and it fails a degraded collection,
// which daebench only reports. Keep the two in step: a change to daebench's
// assembly does not show here until it is copied.
func reproduce(ctx context.Context, cacheDir string, workers int, sp *spans) ([]byte, []*eval.AppData, error) {
	cfg := rt.DefaultTraceConfig()
	cfg.Degrade = rt.DegradeAccess
	opts := eval.CollectOptions{Workers: workers, Cache: eval.NewTraceCache(cacheDir)}
	collect := func(refine bool) ([]*eval.AppData, error) {
		o := opts
		if refine {
			o.Refine = &eval.RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
		}
		var data []*eval.AppData
		err := sp.time("collect", func() (err error) {
			data, err = eval.CollectAllWith(ctx, cfg, o)
			return err
		})
		if err == nil && eval.AnyDegraded(data) {
			err = errors.New("collection completed degraded")
		}
		return data, err
	}
	data, err := collect(false)
	if err != nil {
		return nil, nil, err
	}
	m := rt.DefaultMachine()
	render := func(f func(w io.Writer)) func(w io.Writer) error {
		return func(w io.Writer) error {
			return sp.time("report", func() error { f(w); return nil })
		}
	}
	exps := []func(w io.Writer) error{
		render(func(w io.Writer) {
			fmt.Fprint(w, eval.FormatTable1(eval.Table1(data, m)), "\n")
		}),
		render(func(w io.Writer) {
			rows := eval.Fig3(data, m)
			fmt.Fprint(w, eval.FormatFig3(rows, "Time"), "\n")
			fmt.Fprint(w, eval.FormatFig3(rows, "Energy"), "\n")
			fmt.Fprint(w, eval.FormatFig3(rows, "EDP"), "\n")
			fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), "headline (500ns transitions)"), "\n")
		}),
		render(func(w io.Writer) {
			for _, name := range []string{"Cholesky", "FFT", "LibQ"} {
				for _, d := range data {
					if d.Name == name {
						fmt.Fprint(w, eval.FormatFig4(eval.Fig4(d, m)), "\n")
					}
				}
			}
		}),
		render(func(w io.Writer) {
			ideal := m
			ideal.DVFS = dvfs.Ideal()
			rows := eval.Fig3(data, ideal)
			fmt.Fprint(w, eval.FormatFig3(rows, "EDP"), "\n")
			fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), "headline (zero-latency transitions)"), "\n")
		}),
		func(w io.Writer) error {
			refined, err := collect(true)
			if err != nil {
				return err
			}
			return render(func(w io.Writer) {
				rows := eval.Fig3(refined, m)
				fmt.Fprint(w, eval.FormatFig3(rows, "EDP"), "\n")
				fmt.Fprint(w, eval.FormatHeadline(eval.ComputeHeadline(rows), "headline (refined, 500ns)"), "\n")
			})(w)
		},
		render(func(w io.Writer) { fmt.Fprint(w, eval.FormatStrategies(data)) }),
	}
	bufs := make([]bytes.Buffer, len(exps))
	errs := make([]error, len(exps))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range exps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = exps[i](&bufs[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	for i := range bufs {
		out.Write(bufs[i].Bytes())
	}
	return out.Bytes(), data, nil
}

// reproSetup is the state repro-cold starts from: the report of a
// single-worker reproduction, the reference every op is compared with, and
// the trace-cache directory the set-up reproductions filled, which the
// traced run's daed probe starts from. data, the reference reproduction's
// traces, is kept only for the traced run's isolation passes.
type reproSetup struct {
	report   []byte
	data     []*eval.AppData
	cacheDir string
}

// setupRepro repeats the set-up, a cold reproduction at the ops' worker
// count into a fresh trace-cache directory, o.setupReps times and keeps the
// last directory. The single-worker reference reproduction that follows is
// check preparation, not set-up, and is not timed.
func setupRepro(ctx context.Context, o options, workers int) (*reproSetup, []time.Duration, error) {
	var times []time.Duration
	dir := ""
	for i := 0; i < o.setupReps; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		dir = filepath.Join(o.dir, fmt.Sprintf("setup-%d", i))
		t := time.Now()
		_, _, err := reproduce(ctx, dir, workers, nil)
		times = append(times, time.Since(t))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up reproduction: %w", err)
		}
	}
	refDir := filepath.Join(o.dir, "reference")
	report, data, err := reproduce(ctx, refDir, 1, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("reference reproduction: %w", err)
	}
	if err := os.RemoveAll(refDir); err != nil {
		return nil, nil, err
	}
	s := &reproSetup{report: report, cacheDir: dir}
	if o.trace {
		s.data = data
	}
	return s, times, nil
}

// runRepro runs repro-cold.
func runRepro(ctx context.Context, o options) (*result, error) {
	// daebench runs its reproduction with this GC pace; the benchmark
	// measures the same process configuration.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	workers := runtime.GOMAXPROCS(0)
	s, setupTimes, err := setupRepro(ctx, o, workers)
	if err != nil {
		return nil, err
	}
	res := newResult()
	m := rt.DefaultMachine()
	// checked holds the digests of the last op whose policy order and WCEC
	// soundness were checked. Both verdicts are functions of the traces (and
	// of deterministic rebuilds), so an op with the same digests has the same
	// verdicts.
	var checked []appDigest
	peak := newRSSPeak()
	defer peak.stop()
	op := func(i int, sp *spans) (time.Duration, uint64, error) {
		dir := filepath.Join(o.dir, fmt.Sprintf("op-%d", i))
		a := allocated()
		peak.measure(true)
		t := time.Now()
		report, data, err := reproduce(ctx, dir, workers, sp)
		d := time.Since(t)
		peak.measure(false)
		alloc := allocated() - a
		res.Attempted++
		if err != nil {
			res.opFailed(err)
			return d, alloc, os.RemoveAll(dir)
		}
		// Output checks, outside the timed region.
		res.check(checkReport(report, s.report))
		after, err := snapshotDir(dir)
		if err != nil {
			return 0, 0, err
		}
		res.check(checkEnvelopesWritten(after, envelopesPerReproduction))
		res.check(checkAccessStoreFree(data))
		res.check(checkHierarchyCounts(data))
		digests, err := digestsOf(data)
		if err != nil {
			return 0, 0, err
		}
		if !slices.Equal(digests, checked) {
			res.check(checkPolicyOrder(data, m))
			res.check(checkWCEC(data, m))
			checked = digests
		}
		return d, alloc, os.RemoveAll(dir)
	}
	if o.trace {
		if err := tracedRepro(ctx, o, s, op, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	var lat []time.Duration
	var busy time.Duration
	var alloc uint64
	for i := 0; i == 0 || busy < o.seconds; i++ {
		d, a, err := op(i, nil)
		if err != nil {
			return nil, err
		}
		lat = append(lat, d)
		busy += d
		alloc += a
	}
	// With fewer than a hundred ops the 99th percentile is the slowest op,
	// not a tail.
	if err := endToEnd(res, setupTimes, lat, percentile(durationsMs(lat), 0.99), busy, alloc, peak); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedRepro is the traced run of repro-cold: plain and traced ops
// alternate for the run's duration (their difference is the tracing
// overhead), then every layer is measured in isolation on the reproduction's
// inputs, and a short daed probe measures the service layers.
func tracedRepro(ctx context.Context, o options, s *reproSetup, op func(int, *spans) (time.Duration, uint64, error), res *result) error {
	sp := newSpans()
	var plain, traced []time.Duration
	var busy time.Duration
	for i := 0; i == 0 || busy < o.seconds; i++ {
		d, _, err := op(2*i, nil)
		if err != nil {
			return err
		}
		plain = append(plain, d)
		dt, _, err := op(2*i+1, sp)
		if err != nil {
			return err
		}
		traced = append(traced, dt)
		busy += d + dt
	}
	n := float64(len(traced))
	res.set("eval.collect_ms", ms(sp.get("collect"))/n, "ms")
	res.set("eval.report_ms", ms(sp.get("report"))/n, "ms")
	res.note("trace.overhead_ms", median(durationsMs(traced))-median(durationsMs(plain)), "ms")
	entries, kb, err := dirSize(s.cacheDir)
	if err != nil {
		return err
	}
	res.note("eval.cache_entries", float64(entries), "count")
	res.set("eval.cache_kb", kb, "KB")

	if err := layerPasses(ctx, bench.Apps(), s.data, res); err != nil {
		return err
	}
	ref, err := newServeRef(s.data)
	if err != nil {
		return err
	}
	return probeServe(ctx, o, s.cacheDir, ref, res)
}
