// Package rt implements the DAE runtime system of §3: tasks are scheduled
// across simulated cores, the access version of each task runs immediately
// before its execute version on the same core, and the voltage-frequency is
// switched between the phases under a selectable policy (naive min/max f or
// locally-optimal EDP), accounting for the DVFS transition latency.
//
// Execution follows the paper's own evaluation methodology (§3.1): cache
// behaviour and instruction mix are frequency-independent, so a workload is
// *traced* once per program version (coupled or decoupled), recording each
// task phase's work; any frequency policy and transition latency is then
// evaluated analytically from the trace with the interval timing model and
// the calibrated power model. The work-stealing load balancer is modelled by
// deterministic round-robin placement of the equal-granularity tasks of a
// batch (noted in DESIGN.md).
package rt

import (
	"context"
	"errors"
	"fmt"

	"dae/internal/cpu"
	"dae/internal/dae"
	"dae/internal/fault"
	"dae/internal/interp"
	"dae/internal/ir"
	"dae/internal/lower"
	"dae/internal/mem"
)

// Task is one schedulable unit: a task function and its arguments.
type Task struct {
	// Name is the task function name in the module.
	Name string
	// Args are the interpreter arguments.
	Args []interp.Value
}

// Workload is a phased task graph: the tasks within a batch are independent
// and run in parallel; batches are separated by barriers.
type Workload struct {
	// Name identifies the benchmark.
	Name string
	// Module holds the compiled task functions (and, after dae.GenerateModule,
	// the access versions).
	Module *ir.Module
	// Access maps a task name to its access-version function (nil entries or
	// missing keys mean the task always runs coupled).
	Access map[string]*ir.Func
	// Batches is the phased task list.
	Batches [][]Task
}

// TaskRecord is the traced work of one executed task.
type TaskRecord struct {
	Name  string
	Core  int
	Batch int
	// HasAccess is set when the decoupled trace ran an access phase.
	HasAccess bool
	// AccessWork is the access phase's work (zero unless HasAccess).
	AccessWork cpu.PhaseWork
	// ExecWork is the execute phase's work.
	ExecWork cpu.PhaseWork
	// Degraded is set when the supervisor dropped (or quarantine skipped)
	// the task's access phase and the task ran coupled; Evaluate pins such
	// tasks at Machine.FixedFreq — they forfeit the DVFS benefit.
	Degraded bool
	// Failed is set when the execute phase itself faulted under DegradeFull:
	// the batch completed, but this task produced no result and ExecWork is
	// zero. The fault is also returned from RunContext — never masked.
	Failed bool
	// FaultKind is the fault class behind Degraded or Failed ("" otherwise).
	FaultKind string
}

// Trace is the frequency-independent record of one workload execution.
type Trace struct {
	Workload  string
	Decoupled bool
	Cores     int
	Records   []TaskRecord
	// NumBatches is the barrier count.
	NumBatches int
	// Quarantined maps each task type whose access variant the supervisor
	// disabled to the fault class that triggered the quarantine. The set only
	// grows during a run (monotone); nil for a fault-free trace.
	Quarantined map[string]string
}

// Degraded reports whether supervision altered the run: any quarantined
// task type or any degraded or failed record.
func (tr *Trace) Degraded() bool {
	if len(tr.Quarantined) > 0 {
		return true
	}
	for i := range tr.Records {
		if tr.Records[i].Degraded || tr.Records[i].Failed {
			return true
		}
	}
	return false
}

// coreTracer adapts interpreter memory events onto a core's hierarchy.
type coreTracer struct{ h *mem.Hierarchy }

func (t *coreTracer) Load(a int64)     { t.h.Access(a, mem.Load) }
func (t *coreTracer) Store(a int64)    { t.h.Access(a, mem.Store) }
func (t *coreTracer) Prefetch(a int64) { t.h.Access(a, mem.Prefetch) }

// Placement selects how a batch's tasks are assigned to cores. Placement
// must be frequency-independent (it is fixed at trace time because caches
// are per-core), so the load balancer works on executed-instruction counts.
type Placement int

// Placement policies.
const (
	// PlaceRoundRobin deals tasks out cyclically — exact for the
	// equal-granularity batches the paper's benchmarks produce.
	PlaceRoundRobin Placement = iota
	// PlaceLeastLoaded assigns each task to the core with the least
	// accumulated work so far, approximating the paper's work stealing for
	// batches with imbalanced tasks.
	PlaceLeastLoaded
)

// DegradeMode selects how much of a faulting workload the runtime
// supervisor salvages. See RunContext.
type DegradeMode int

// Degradation modes, in increasing tolerance.
const (
	// DegradeOff disables supervision: the first task-phase fault aborts the
	// whole trace (the pre-supervisor behaviour).
	DegradeOff DegradeMode = iota
	// DegradeAccess supervises access phases only: an access-phase fault
	// quarantines that task type's access variant for the rest of the
	// workload and the task runs coupled; execute-phase faults still abort.
	// Dropping an access phase is always safe — access phases are store-free
	// by construction (dae purity verification), so they have no effect the
	// execute phase depends on.
	DegradeAccess
	// DegradeFull additionally contains execute-phase faults to task
	// granularity: the task is marked Failed, the batch completes, and
	// RunContext returns the completed trace together with the joined
	// execute faults. The faults are never masked — callers that treat a
	// non-nil error as failure still see one.
	DegradeFull
)

// String returns the CLI spelling of the mode.
func (d DegradeMode) String() string {
	switch d {
	case DegradeAccess:
		return "access"
	case DegradeFull:
		return "full"
	}
	return "off"
}

// ParseDegradeMode parses the CLI spelling ("off", "access", "full").
func ParseDegradeMode(s string) (DegradeMode, error) {
	switch s {
	case "off":
		return DegradeOff, nil
	case "access":
		return DegradeAccess, nil
	case "full":
		return DegradeFull, nil
	}
	return DegradeOff, fmt.Errorf("rt: unknown degrade mode %q (want off, access, or full)", s)
}

// TraceConfig controls workload tracing.
type TraceConfig struct {
	// Cores is the number of simulated cores (the paper evaluates 4).
	Cores int
	// Hierarchy configures the caches.
	Hierarchy mem.HierarchyConfig
	// Decoupled runs access phases before execute phases where available.
	Decoupled bool
	// Place selects the load balancer (default round robin).
	Place Placement
	// MaxSteps, when positive, is the per-task-phase interpreter step (fuel)
	// budget: a phase that executes more operations fails the run with a
	// fault.ErrStepBudget error instead of hanging the trace.
	MaxSteps int64
	// Degrade selects the runtime supervisor's tolerance (default DegradeOff).
	Degrade DegradeMode
	// PhaseHook, when non-nil, is consulted immediately before each task
	// phase; a non-nil return faults the phase as if execution had failed,
	// and a panic is recovered like a real crash. It exists for fault
	// injection and is deliberately excluded from Fingerprint — hooks must
	// not change healthy traces.
	PhaseHook func(task string, access bool) error
}

// DefaultTraceConfig returns the quad-core evaluation setup with the
// downscaled cache hierarchy (see mem.EvalHierarchy).
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{Cores: 4, Hierarchy: mem.EvalHierarchy(), Decoupled: true}
}

// Fingerprint returns a canonical content key covering every field that
// influences a trace. Two configs with equal fingerprints produce identical
// traces for the same workload, so the string is usable as a cache key.
func (c TraceConfig) Fingerprint() string {
	h := func(cc mem.Config) string {
		return fmt.Sprintf("%d/%d/%d", cc.SizeBytes, cc.LineBytes, cc.Assoc)
	}
	return fmt.Sprintf("cores=%d;l1=%s;l2=%s;l3=%s;dec=%t;place=%d;steps=%d;deg=%d",
		c.Cores, h(c.Hierarchy.L1), h(c.Hierarchy.L2), h(c.Hierarchy.L3), c.Decoupled, c.Place, c.MaxSteps, c.Degrade)
}

// Run traces the workload: every task executes for real through the
// interpreter against its core's cache hierarchy, with the access phase (if
// any, and if cfg.Decoupled) immediately preceding the execute phase on the
// same core. It returns the per-task work records.
func Run(w *Workload, cfg TraceConfig) (*Trace, error) {
	return RunContext(context.Background(), w, cfg)
}

// RunContext is Run under a cancellation context: the context is polled
// between tasks and, inside the interpreter, every few thousand executed
// operations, so a runaway task aborts the trace with a fault.KindTimeout
// error shortly after ctx expires. A panic while tracing (a compiler or
// runtime bug surfaced by an untrusted input) is recovered into a
// fault.ErrPanic error rather than crashing the process.
//
// With cfg.Degrade above DegradeOff, RunContext supervises task phases
// instead of aborting on the first fault: a faulting access phase is
// discarded (access phases are store-free, so the simulated heap is
// untouched), the task type's access variant is quarantined for the rest of
// the workload, and the task — plus every later instance of its type — runs
// coupled with its record marked Degraded. Under DegradeFull a faulting
// execute phase marks only that task Failed and the batch completes, but the
// fault is still returned (joined, alongside the completed trace) so it can
// never be silently swallowed. Real cancellation always aborts.
//
// RunContext is RunGroup's group of one.
func RunContext(ctx context.Context, w *Workload, cfg TraceConfig) (*Trace, error) {
	trs, errs := RunGroup(ctx, w, cfg, []map[string]*ir.Func{runAccess(w, cfg)})
	return trs[0], errs[0]
}

// runAccess is the access map of the one run cfg selects: nil (coupled)
// unless cfg.Decoupled, and never nil when it is.
func runAccess(w *Workload, cfg TraceConfig) map[string]*ir.Func {
	if !cfg.Decoupled {
		return nil
	}
	if w.Access == nil {
		return map[string]*ir.Func{}
	}
	return w.Access
}

// RunGroup traces several runs of one workload in one pass over its
// batches. access holds one access map per run: a nil map makes the run
// coupled, any other map makes it decoupled with those access versions
// (cfg.Decoupled and w.Access are not consulted). It returns, per run, the
// trace and the error RunContext would have returned for that run alone.
//
// The runs share w's heap and the interpretation of every execute phase.
// Each run keeps its own per-core hierarchies and shared L3, its records,
// its quarantine, its PlaceLeastLoaded load and its contained execute
// faults. Sharing is sound because access phases are store-free (dae purity
// verification): whatever access phases ran, every run's execute phase
// sees the same heap, executes the same operations and emits the same
// memory events, and each event is fed to the hierarchy of the core the run
// placed the task on. A group of more than one run checks that premise: an
// access phase that reaches its hierarchy with a store fails every run
// still going with a fault.KindVerify error, because the heap they share
// has changed.
//
// A fault in a shared execute phase is every live run's fault. A run that
// an access-phase fault ends (under DegradeOff) drops out and the others go
// on. cfg.PhaseHook is consulted before each run's access phase and once
// before each shared execute phase.
//
// While one run is live, its execute phases feed its hierarchy through the
// VM's fused probe, as RunContext always does. With more than one, they
// run on one more Env whose Tracer feeds a mem.Group of the live runs'
// hierarchies, which settles an event that hits the phase's own L1 stack
// once for all of them.
func RunGroup(ctx context.Context, w *Workload, cfg TraceConfig, access []map[string]*ir.Func) ([]*Trace, []error) {
	return runGroup(ctx, w, cfg, access, interp.NewEnv)
}

// runGroup is RunGroup with every interpreter built by newEnv. Production
// passes interp.NewEnv; the tests pass the tree oracle's constructor
// (export_test.go) to check the two engines trace identically.
func runGroup(ctx context.Context, w *Workload, cfg TraceConfig, access []map[string]*ir.Func, newEnv func(*interp.Program, interp.Tracer) *interp.Env) ([]*Trace, []error) {
	g := &group{ctx: ctx, cfg: cfg, newEnv: newEnv}
	for _, acc := range access {
		g.runs = append(g.runs, &groupRun{access: acc})
	}
	if err := g.run(w); err != nil {
		g.abort(err)
	}
	trs := make([]*Trace, len(g.runs))
	errs := make([]error, len(g.runs))
	for i, r := range g.runs {
		switch {
		case r.err != nil:
			errs[i] = r.err
		case len(r.execFaults) > 0:
			trs[i], errs[i] = r.tr, errors.Join(r.execFaults...)
		default:
			trs[i] = r.tr
		}
	}
	return trs, errs
}

// group is the state of one RunGroup call.
type group struct {
	ctx    context.Context
	cfg    TraceConfig
	newEnv func(*interp.Program, interp.Tracer) *interp.Env
	prog   *interp.Program
	runs   []*groupRun
	// shared runs the execute phases of more than one live run, feeding
	// mg, whose members are hs; it is built on first use.
	mg     mem.Group
	hs     []*mem.Hierarchy
	shared *executor
}

// groupRun is one run of a group.
type groupRun struct {
	access     map[string]*ir.Func
	tr         *Trace
	cores      []*executor
	load       []int64
	execFaults []error
	// err is the fault that ended the run; the run is live while it is nil.
	err error
	// ci and rec are the current task's core and record.
	ci  int
	rec TaskRecord
}

// executor is one interpreter Env with the tracer and hierarchy it was
// built with, so it can be rebuilt after a fault. A run's simulated core
// is an executor whose hier is the core's hierarchy.
type executor struct {
	env    *interp.Env
	tracer interp.Tracer
	hier   *mem.Hierarchy
	// prep memoizes prepared handles per task function, so the per-task
	// dispatch inside a batch carries no map lookup or compile check
	// (batch-of-tasks amortization). Invalidated whenever env is rebuilt.
	prep map[*ir.Func]*interp.Prepared
}

// groupTracer adapts a shared execute phase's memory events onto the
// group of the live runs' hierarchies.
type groupTracer struct{ g *mem.Group }

func (t *groupTracer) Load(a int64)     { t.g.Access(a, mem.Load) }
func (t *groupTracer) Store(a int64)    { t.g.Access(a, mem.Store) }
func (t *groupTracer) Prefetch(a int64) { t.g.Access(a, mem.Prefetch) }

// newExecutor returns a fresh executor whose Env reports memory events to
// tracer and, when hier is non-nil, to hier through the fused probe.
func (g *group) newExecutor(tracer interp.Tracer, hier *mem.Hierarchy) *executor {
	x := &executor{tracer: tracer, hier: hier}
	g.rebuild(x)
	return x
}

// rebuild replaces x's Env. After a fault the interpreter may have unwound
// mid-call; a fresh Env is simpler than reasoning about its pools.
func (g *group) rebuild(x *executor) {
	env := g.newEnv(g.prog, x.tracer)
	env.SetContext(g.ctx)
	env.SetMaxSteps(g.cfg.MaxSteps)
	// Fused cache probe: the bytecode VM feeds the hierarchy directly from
	// its memory instructions; the tree oracle keeps using the tracer over
	// the same hierarchy (identical events).
	env.SetHierarchy(x.hier)
	x.env, x.prep = env, make(map[*ir.Func]*interp.Prepared)
}

// abort ends every live run with err.
func (g *group) abort(err error) {
	for _, r := range g.runs {
		if r.err == nil {
			r.err = err
		}
	}
}

// run walks the batches once for every run. A non-nil return ends every
// run still live.
func (g *group) run(w *Workload) (err error) {
	defer fault.Recover(&err, "trace-run")
	if g.cfg.Cores <= 0 {
		return fmt.Errorf("rt: need at least one core")
	}
	g.prog = interp.NewProgram(w.Module)
	for _, r := range g.runs {
		l3 := mem.NewCache(g.cfg.Hierarchy.L3)
		r.cores = make([]*executor, g.cfg.Cores)
		for i := range r.cores {
			h := mem.NewHierarchy(g.cfg.Hierarchy, l3)
			r.cores[i] = g.newExecutor(&coreTracer{h: h}, h)
		}
		r.load = make([]int64, g.cfg.Cores)
		r.tr = &Trace{Workload: w.Name, Decoupled: r.access != nil, Cores: g.cfg.Cores, NumBatches: len(w.Batches)}
	}

	live := make([]*groupRun, 0, len(g.runs))
	for bi, batch := range w.Batches {
		for _, r := range g.runs {
			clear(r.load)
		}
		for ti, task := range batch {
			if err := g.ctx.Err(); err != nil {
				return fault.Wrap(fault.KindTimeout, err)
			}
			fn := w.Module.Func(task.Name)
			if fn == nil {
				return fmt.Errorf("rt: no task function %q", task.Name)
			}
			live = live[:0]
			for _, r := range g.runs {
				if r.err != nil {
					continue
				}
				if err := g.access(r, bi, ti, task); err != nil {
					return err
				}
				if r.err == nil {
					live = append(live, r)
				}
			}
			if len(live) == 0 {
				return nil
			}
			if err := g.execute(live, task, fn); err != nil {
				return err
			}
			for _, r := range live {
				r.load[r.ci] += r.rec.AccessWork.Counts.Total() + r.rec.ExecWork.Counts.Total()
				r.tr.Records = append(r.tr.Records, r.rec)
			}
		}
	}
	return nil
}

// phase consults the injection hook, then interprets fn on x. Panics are
// recovered here (not just at the trace boundary) so the supervisor can act
// on a crashing phase like on any other fault.
func (g *group) phase(x *executor, task string, fn *ir.Func, args []interp.Value, access bool) (counts interp.Counts, err error) {
	defer fault.Recover(&err, "task-phase")
	if g.cfg.PhaseHook != nil {
		if herr := g.cfg.PhaseHook(task, access); herr != nil {
			return interp.Counts{}, herr
		}
	}
	prep, ok := x.prep[fn]
	if !ok {
		if prep, err = x.env.Prepare(fn); err != nil {
			return interp.Counts{}, err
		}
		x.prep[fn] = prep
	}
	x.env.ResetCounts()
	if _, err := prep.Call(args...); err != nil {
		return interp.Counts{}, err
	}
	return x.env.Counts(), nil
}

// access places task ti of batch bi on one of r's cores and runs r's access
// phase of it there, if r has one. A fault that ends r alone is left in
// r.err; the returned fault ends every live run.
func (g *group) access(r *groupRun, bi, ti int, task Task) error {
	ci := ti % g.cfg.Cores
	if g.cfg.Place == PlaceLeastLoaded {
		ci = 0
		for k := 1; k < g.cfg.Cores; k++ {
			if r.load[k] < r.load[ci] {
				ci = k
			}
		}
	}
	r.ci = ci
	r.rec = TaskRecord{Name: task.Name, Core: ci, Batch: bi}
	acc := r.access[task.Name]
	if acc == nil {
		return nil
	}
	if kind, q := r.tr.Quarantined[task.Name]; q {
		// Access variant already quarantined: run coupled.
		r.rec.Degraded = true
		r.rec.FaultKind = kind
		return nil
	}
	c := r.cores[ci]
	c.hier.ResetStats()
	counts, aerr := g.phase(c, task.Name, acc, task.Args, true)
	if n := c.hier.Stats.Total(mem.Store); n > 0 && len(g.runs) > 1 {
		return fault.New(fault.KindVerify,
			"rt: access phase of %s stored %d times to the heap its group shares", task.Name, n)
	}
	switch {
	case aerr == nil:
		r.rec.HasAccess = true
		r.rec.AccessWork = cpu.PhaseWork{Counts: counts, Mem: c.hier.Stats}
	case g.ctx.Err() != nil:
		return fault.Wrap(fault.KindTimeout, g.ctx.Err())
	case g.cfg.Degrade == DegradeOff:
		r.err = fmt.Errorf("rt: access phase of %s: %w", task.Name, aerr)
	default:
		// Supervise: the access phase stored nothing (purity-verified), so
		// discard it, quarantine the task type's access variant, and run
		// this task coupled.
		kind := fault.ClassOf(aerr)
		if r.tr.Quarantined == nil {
			r.tr.Quarantined = make(map[string]string)
		}
		r.tr.Quarantined[task.Name] = kind
		r.rec.Degraded = true
		r.rec.FaultKind = kind
		g.rebuild(c)
	}
	return nil
}

// execute interprets the execute phase of task once for the live runs,
// each on the core its access placed the task on. The returned fault ends
// every live run.
func (g *group) execute(live []*groupRun, task Task, fn *ir.Func) error {
	for _, r := range live {
		r.cores[r.ci].hier.ResetStats()
	}
	x := live[0].cores[live[0].ci]
	if len(live) > 1 {
		g.hs = g.hs[:0]
		for _, r := range live {
			g.hs = append(g.hs, r.cores[r.ci].hier)
		}
		if g.shared == nil {
			g.shared = g.newExecutor(&groupTracer{&g.mg}, nil)
		}
		x = g.shared
		g.mg.Begin(g.hs)
	}
	counts, xerr := g.phase(x, task.Name, fn, task.Args, false)
	if x == g.shared {
		// Faulted or not, the phase's cache effects reach every run.
		g.mg.End()
	}
	switch {
	case xerr == nil:
		for _, r := range live {
			r.rec.ExecWork = cpu.PhaseWork{Counts: counts, Mem: r.cores[r.ci].hier.Stats}
		}
	case g.ctx.Err() != nil:
		return fault.Wrap(fault.KindTimeout, g.ctx.Err())
	case g.cfg.Degrade != DegradeFull:
		return fmt.Errorf("rt: execute phase of %s: %w", task.Name, xerr)
	default:
		// Contain to task granularity, but never mask: the joined fault is
		// returned together with each completed trace.
		kind := fault.ClassOf(xerr)
		for _, r := range live {
			r.rec.Failed = true
			r.rec.FaultKind = kind
			r.execFaults = append(r.execFaults, fmt.Errorf("rt: execute phase of %s: %w", task.Name, xerr))
		}
		g.rebuild(x)
	}
	return nil
}

// BuildWorkload compiles TaskC source, generates access versions with the
// given options, and wraps everything as a Workload (batches filled by the
// caller).
func BuildWorkload(name, src string, opts dae.Options) (*Workload, map[string]*dae.Result, error) {
	mod, err := lower.Compile(src, name)
	if err != nil {
		return nil, nil, err
	}
	results, err := dae.GenerateModule(mod, opts)
	if err != nil {
		return nil, nil, err
	}
	access := make(map[string]*ir.Func)
	for name, res := range results {
		if res.Access != nil {
			access[name] = res.Access
		}
	}
	return &Workload{Name: name, Module: mod, Access: access}, results, nil
}

// SuggestGranularity returns a task size (in loop iterations) whose working
// set just fits the private cache hierarchy — the §3.1 sizing rule the paper
// leaves to the programmer and §5.2.3 proposes automating. bytesPerIter is
// the number of distinct bytes one iteration touches across all arrays.
func SuggestGranularity(bytesPerIter int, hier mem.HierarchyConfig) int {
	if bytesPerIter <= 0 {
		return 1
	}
	// Target the full private capacity (L1+L2): a modest number of L1
	// misses serviced by the L2 does not hurt compute-boundedness (§3.1).
	target := hier.L1.SizeBytes + hier.L2.SizeBytes
	n := target / bytesPerIter
	if n < 1 {
		return 1
	}
	return n
}
