// Package eval reproduces the paper's evaluation: Table 1 (application
// characteristics), Figure 3 (time/energy/EDP of the five configurations
// normalized to coupled execution at fmax), Figure 4 (per-frequency runtime
// and energy profiles for Cholesky, FFT and LibQ), and the §6.1 zero-latency
// projection. One trace per program version feeds every frequency policy,
// exactly as the paper combines per-frequency profiling with its power model.
package eval

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"dae/internal/bench"
	"dae/internal/dae"
	"dae/internal/fault"
	"dae/internal/fault/inject"
	"dae/internal/rt"
)

// AppData bundles the three traces of one benchmark.
type AppData struct {
	Name string
	// CAE is the coupled trace (no access phases).
	CAE *rt.Trace
	// Manual is the decoupled trace with hand-written access versions.
	Manual *rt.Trace
	// Auto is the decoupled trace with compiler-generated access versions.
	Auto *rt.Trace
	// Results describes the compiler's per-task generation decisions. When
	// the data came from an on-disk trace-cache entry, only the summary
	// fields are populated (the IR functions are not persisted).
	Results map[string]*dae.Result
}

// RefineSpec requests profile-guided prefetch pruning (dae.RefineAccess) on
// the compiler-generated access versions before the decoupled Auto trace.
type RefineSpec struct {
	Options dae.RefineOptions
	// PerTask is the number of representative task instances profiled per
	// task type.
	PerTask int
}

// CollectOptions configure the trace-collection pipeline.
type CollectOptions struct {
	// Workers bounds the number of concurrent (app, run) trace collections;
	// values <= 0 mean runtime.GOMAXPROCS(0). Every run is self-contained
	// (own build, heap, interpreter environments and caches), so results are
	// byte-identical to a sequential collection regardless of Workers.
	Workers int
	// Cache, when non-nil, memoizes each (app, run, config) trace so that
	// repeated collections — e.g. the refined re-trace, which changes only
	// the Auto run, and not even that where refinement prunes nothing —
	// reuse prior work instead of re-simulating.
	Cache *TraceCache
	// Refine, when non-nil, applies profile-guided pruning to the Auto run.
	Refine *RefineSpec
	// RunTimeout, when positive, bounds each individual (app, run)
	// collection; a run that exceeds it fails with fault.ErrTimeout while
	// the other runs complete normally.
	RunTimeout time.Duration
	// Inject, when non-nil, is the fault-injection hook consulted at every
	// pipeline boundary (tests only; nil in production).
	Inject inject.Hook
	// InjectPhase, when non-nil, is consulted by the runtime supervisor
	// immediately before every task phase of every run, with the run's app
	// and kind bound in (tests only; nil in production). An inject.Injector's
	// PhaseFunc has exactly this signature.
	InjectPhase func(app, kind, task string, access bool) error
}

// runKind identifies one of the three independent traced runs of an app.
type runKind int

const (
	runCAE    runKind = iota // compiler build, coupled (no access phases)
	runManual                // manual build, decoupled
	runAuto                  // compiler build, decoupled
	numRunKinds
)

func (k runKind) String() string {
	switch k {
	case runCAE:
		return "coupled"
	case runManual:
		return "manual-dae"
	default:
		return "compiler-dae"
	}
}

// runOutput is the cacheable product of one traced run. Results is set only
// for runCAE (one copy per app is enough; it is identical for every compiler
// build of the same benchmark).
type runOutput struct {
	Trace   *rt.Trace
	Results map[string]*dae.Result
}

// guard runs one pipeline stage under panic-to-error recovery and, when an
// injection hook is installed, lets the hook fail (or crash) the stage
// first. A panic anywhere below fn — front end, optimizer, generator,
// interpreter — degrades to a typed fault.ErrPanic error on this one run
// instead of taking down the whole collection.
func guard(site inject.Site, app string, kind runKind, hook inject.Hook, fn func() error) (err error) {
	defer fault.Recover(&err, string(site))
	if hook != nil {
		if ierr := hook(site, app, kind.String()); ierr != nil {
			return ierr
		}
	}
	return fn()
}

// collectRun builds and traces one (app, kind) pair, verifying the computed
// output against the Go reference. Each of the three pipeline boundaries —
// compile, access generation, trace run — is individually guarded.
func collectRun(ctx context.Context, app bench.App, kind runKind, cfg rt.TraceConfig, opts CollectOptions) (*runOutput, error) {
	if opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.RunTimeout)
		defer cancel()
	}
	v := bench.Auto
	if kind == runManual {
		v = bench.Manual
	}
	var b *bench.Built
	if err := guard(inject.SiteCompile, app.Name, kind, opts.Inject, func() (err error) {
		b, err = app.Build(v)
		return err
	}); err != nil {
		return nil, err
	}
	if kind == runAuto && opts.Refine != nil {
		pruned := 0
		if err := guard(inject.SiteAccessGen, app.Name, kind, opts.Inject, func() (err error) {
			pruned, err = b.Refine(opts.Refine.Options, opts.Refine.PerTask)
			return err
		}); err != nil {
			return nil, err
		}
		if pruned == 0 && opts.Cache != nil {
			// Refinement that prunes nothing leaves every access version
			// untouched, so this build is the unrefined build and, builds
			// being deterministic, traces identically: share the unrefined
			// run instead of simulating it again.
			plain := opts
			plain.Refine = nil
			return cachedRun(ctx, app, kind, cfg, plain)
		}
	}
	c := cfg
	c.Decoupled = kind != runCAE
	if opts.InjectPhase != nil {
		app, kind := app.Name, kind.String()
		c.PhaseHook = func(task string, access bool) error {
			return opts.InjectPhase(app, kind, task, access)
		}
	}
	var tr *rt.Trace
	if err := guard(inject.SiteTraceRun, app.Name, kind, opts.Inject, func() error {
		var err error
		tr, err = rt.RunContext(ctx, b.W, c)
		if err != nil {
			return err
		}
		return b.Verify()
	}); err != nil {
		return nil, err
	}
	out := &runOutput{Trace: tr}
	if kind == runCAE {
		out.Results = b.Results
	}
	return out, nil
}

// cachedRun resolves one run through the cache (when present). Concurrent
// collections that miss on the same key — two goroutines, two experiments,
// two server requests sharing a cache — collapse onto one simulation via the
// cache's singleflight; the others wait and share the result.
func cachedRun(ctx context.Context, app bench.App, kind runKind, cfg rt.TraceConfig, opts CollectOptions) (*runOutput, error) {
	if err := ctx.Err(); err != nil {
		// The collection was canceled before this run started; fail fast so
		// the pool drains without touching the simulator.
		return nil, fault.Wrap(fault.KindTimeout, err)
	}
	if opts.Cache == nil {
		return collectRun(ctx, app, kind, cfg, opts)
	}
	key := runKey(app.Name, kind, cfg, opts.Refine)
	return opts.Cache.resolve(ctx, key, func(ctx context.Context) (*runOutput, error) {
		return collectRun(ctx, app, kind, cfg, opts)
	})
}

// forEachJob runs do(0..n-1) on a bounded worker pool. workers <= 0 selects
// runtime.GOMAXPROCS(0); a single worker degenerates to a plain loop.
func forEachJob(n, workers int, do func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// collectApps fans the (app, run) pairs of apps out over the worker pool and
// reassembles them in deterministic app order. All failures are reported as
// *RunError values, joined in job order, so one broken benchmark does not
// mask the others and summaries stay deterministic under any worker count.
// Cancellation fails the not-yet-started runs fast (cachedRun's entry check)
// and interrupts in-flight interpretation, so the pool always drains.
func collectApps(ctx context.Context, apps []bench.App, cfg rt.TraceConfig, opts CollectOptions) ([]*AppData, error) {
	n := len(apps) * int(numRunKinds)
	outs := make([]*runOutput, n)
	errs := make([]error, n)
	forEachJob(n, opts.Workers, func(i int) {
		app, kind := apps[i/int(numRunKinds)], runKind(i%int(numRunKinds))
		out, err := cachedRun(ctx, app, kind, cfg, opts)
		if err != nil {
			errs[i] = &RunError{App: app.Name, Kind: kind.String(), Err: err}
			return
		}
		outs[i] = out
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	data := make([]*AppData, len(apps))
	for ai, app := range apps {
		base := ai * int(numRunKinds)
		data[ai] = &AppData{
			Name:    app.Name,
			CAE:     outs[base+int(runCAE)].Trace,
			Manual:  outs[base+int(runManual)].Trace,
			Auto:    outs[base+int(runAuto)].Trace,
			Results: outs[base+int(runCAE)].Results,
		}
	}
	return data, nil
}

// Collect builds and traces all three versions of one app, verifying each
// run's computed output against the Go reference.
func Collect(app bench.App, cfg rt.TraceConfig) (*AppData, error) {
	return CollectWith(context.Background(), app, cfg, CollectOptions{})
}

// CollectWith is Collect with explicit pipeline options, under ctx:
// cancellation interrupts in-flight interpretation and fails the remaining
// runs fast with fault.KindTimeout errors.
func CollectWith(ctx context.Context, app bench.App, cfg rt.TraceConfig, opts CollectOptions) (*AppData, error) {
	data, err := collectApps(ctx, []bench.App{app}, cfg, opts)
	if err != nil {
		return nil, err
	}
	return data[0], nil
}

// CollectRefined is Collect with profile-guided prefetch pruning
// (dae.RefineAccess) applied to the compiler-generated access versions
// before the decoupled trace.
func CollectRefined(app bench.App, cfg rt.TraceConfig, ropts dae.RefineOptions, perTask int) (*AppData, error) {
	return CollectWith(context.Background(), app, cfg,
		CollectOptions{Refine: &RefineSpec{Options: ropts, PerTask: perTask}})
}

// CollectAll gathers every benchmark, collecting traces in parallel across
// runtime.GOMAXPROCS(0) workers.
func CollectAll(cfg rt.TraceConfig) ([]*AppData, error) {
	return CollectAllWith(context.Background(), cfg, CollectOptions{})
}

// CollectAllWith is CollectAll with explicit pipeline options, under ctx
// (see CollectWith).
func CollectAllWith(ctx context.Context, cfg rt.TraceConfig, opts CollectOptions) ([]*AppData, error) {
	return collectApps(ctx, bench.Apps(), cfg, opts)
}

// GeoMean returns the geometric mean of xs.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Table1Row is one application-characteristics row (Table 1).
type Table1Row struct {
	App string
	// AffineLoops / TotalLoops is the per-task-type loop classification
	// aggregated over the app's tasks.
	AffineLoops int
	TotalLoops  int
	// Tasks is the number of task executions.
	Tasks int
	// TAPercent is the fraction of busy time spent in access phases, in
	// percent, under the min/max policy.
	TAPercent float64
	// TAMicros is the mean access-phase duration in µs.
	TAMicros float64
	// DegradedTasks counts task executions the runtime supervisor demoted to
	// coupled (quarantined access variant). Degraded tasks contribute no
	// access time, so a nonzero count deflates TA% — the column says so.
	DegradedTasks int
	// FailedTasks counts task executions whose execute phase faulted under
	// full degradation.
	FailedTasks int
	// EDPMinMax, EDPOptimal, and EDPRWCEC compare the frequency policies on
	// the compiler-DAE trace: EDP normalized to coupled execution at fmax.
	// EDPRWCEC is the intra-task remaining-WCEC policy driven by the static
	// bounds of internal/analysis/wcec; NaN (rendered "-") means the bounds
	// could not be computed for this app.
	EDPMinMax  float64
	EDPOptimal float64
	EDPRWCEC   float64
}

// Table1 computes the application characteristics from the Auto traces. The
// policy-EDP columns are evaluated sequentially from the traces (and, for
// rwcec, from a deterministic rebuild of the static bounds), so rows are
// byte-identical regardless of the Workers count used for collection.
func Table1(data []*AppData, m rt.Machine) []Table1Row {
	var rows []Table1Row
	for _, d := range data {
		met := rt.Evaluate(d.Auto, m, rt.PolicyMinMax)
		base := rt.Evaluate(d.CAE, m, rt.PolicyFixed)
		row := Table1Row{
			App:           d.Name,
			Tasks:         met.Tasks,
			TAPercent:     met.TAFraction() * 100,
			TAMicros:      met.MeanAccessSeconds() * 1e6,
			DegradedTasks: met.DegradedTasks,
			FailedTasks:   met.FailedTasks,
			EDPMinMax:     met.EDP / base.EDP,
			EDPOptimal:    rt.Evaluate(d.Auto, m, rt.PolicyOptimalEDP).EDP / base.EDP,
			EDPRWCEC:      rwcecEDP(d, m, base.EDP),
		}
		for _, r := range d.Results {
			row.AffineLoops += r.AffineLoops
			row.TotalLoops += r.TotalLoops
		}
		rows = append(rows, row)
	}
	return rows
}

// Fig3Config identifies one of the five evaluated configurations.
type Fig3Config int

// Figure 3 configurations, in the paper's legend order.
const (
	CAEOptimal Fig3Config = iota
	ManualMinMax
	ManualOptimal
	AutoMinMax
	AutoOptimal
	NumFig3Configs
)

// String returns the legend label.
func (c Fig3Config) String() string {
	switch c {
	case CAEOptimal:
		return "CAE (Optimal f.)"
	case ManualMinMax:
		return "Manual DAE (Min/Max f.)"
	case ManualOptimal:
		return "Manual DAE (Optimal f.)"
	case AutoMinMax:
		return "Compiler DAE (Min/Max f.)"
	default:
		return "Compiler DAE (Optimal f.)"
	}
}

// Fig3Row holds, for one app, the three metrics of every configuration
// normalized to coupled execution at maximum frequency.
type Fig3Row struct {
	App    string
	Time   [NumFig3Configs]float64
	Energy [NumFig3Configs]float64
	EDP    [NumFig3Configs]float64
}

// Fig3 evaluates the five configurations for every app and appends a
// geometric-mean row.
func Fig3(data []*AppData, m rt.Machine) []Fig3Row {
	rows := make([]Fig3Row, 0, len(data)+1)
	for _, d := range data {
		base := rt.Evaluate(d.CAE, m, rt.PolicyFixed) // CAE @ fmax
		row := Fig3Row{App: d.Name}
		set := func(c Fig3Config, met rt.Metrics) {
			row.Time[c] = met.Time / base.Time
			row.Energy[c] = met.Energy / base.Energy
			row.EDP[c] = met.EDP / base.EDP
		}
		set(CAEOptimal, rt.Evaluate(d.CAE, m, rt.PolicyOptimalEDP))
		set(ManualMinMax, rt.Evaluate(d.Manual, m, rt.PolicyMinMax))
		set(ManualOptimal, rt.Evaluate(d.Manual, m, rt.PolicyOptimalEDP))
		set(AutoMinMax, rt.Evaluate(d.Auto, m, rt.PolicyMinMax))
		set(AutoOptimal, rt.Evaluate(d.Auto, m, rt.PolicyOptimalEDP))
		rows = append(rows, row)
	}
	gm := Fig3Row{App: "G.Mean"}
	for c := Fig3Config(0); c < NumFig3Configs; c++ {
		var ts, es, ps []float64
		for _, r := range rows {
			ts = append(ts, r.Time[c])
			es = append(es, r.Energy[c])
			ps = append(ps, r.EDP[c])
		}
		gm.Time[c] = GeoMean(ts)
		gm.Energy[c] = GeoMean(es)
		gm.EDP[c] = GeoMean(ps)
	}
	return append(rows, gm)
}

// Fig4Point is one bar of a Figure 4 profile: the per-core-average runtime
// (and energy) split into Prefetch (access phases), Task (execute phases),
// and O.S.I. (overhead/sequential/idle: DVFS transitions plus barrier idle).
type Fig4Point struct {
	ExecFreq  float64
	Prefetch  float64
	Task      float64
	OSI       float64
	PrefetchE float64
	TaskE     float64
	OSIE      float64
}

// Total returns the bar height (makespan).
func (p Fig4Point) Total() float64 { return p.Prefetch + p.Task + p.OSI }

// TotalE returns the total energy.
func (p Fig4Point) TotalE() float64 { return p.PrefetchE + p.TaskE + p.OSIE }

// Fig4Profile holds one benchmark's three per-frequency series.
type Fig4Profile struct {
	App    string
	CAE    []Fig4Point
	Manual []Fig4Point
	Auto   []Fig4Point
}

// Fig4 sweeps the execute frequency from fmin to fmax (access fixed at fmin
// for the DAE versions; CAE coupled at the swept frequency).
func Fig4(d *AppData, m rt.Machine) Fig4Profile {
	prof := Fig4Profile{App: d.Name}
	for _, lvl := range m.DVFS.Levels {
		mm := m
		mm.FixedFreq = lvl.Freq
		prof.CAE = append(prof.CAE, toFig4Point(rt.Evaluate(d.CAE, mm, rt.PolicyFixed), lvl.Freq, d.CAE.Cores))
		prof.Manual = append(prof.Manual, toFig4Point(rt.Evaluate(d.Manual, mm, rt.PolicyMinFixed), lvl.Freq, d.Manual.Cores))
		prof.Auto = append(prof.Auto, toFig4Point(rt.Evaluate(d.Auto, mm, rt.PolicyMinFixed), lvl.Freq, d.Auto.Cores))
	}
	return prof
}

func toFig4Point(met rt.Metrics, f float64, cores int) Fig4Point {
	c := float64(cores)
	p := Fig4Point{
		ExecFreq:  f,
		Prefetch:  met.AccessTime / c,
		Task:      met.ExecuteTime / c,
		PrefetchE: met.AccessEnergy,
		TaskE:     met.ExecuteEnergy,
		OSIE:      met.OtherEnergy,
	}
	p.OSI = met.Time - p.Prefetch - p.Task
	if p.OSI < 0 {
		p.OSI = 0
	}
	return p
}
