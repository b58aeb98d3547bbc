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
func RunContext(ctx context.Context, w *Workload, cfg TraceConfig) (*Trace, error) {
	return runContext(ctx, w, cfg, interp.NewEnv)
}

// runContext is RunContext with every core's interpreter built by newEnv.
// Production passes interp.NewEnv; the tests pass the tree oracle's
// constructor (export_test.go) to check the two engines trace identically.
func runContext(ctx context.Context, w *Workload, cfg TraceConfig, newEnv func(*interp.Program, interp.Tracer) *interp.Env) (tr *Trace, err error) {
	defer fault.Recover(&err, "trace-run")
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("rt: need at least one core")
	}
	prog := interp.NewProgram(w.Module)
	l3 := mem.NewCache(cfg.Hierarchy.L3)

	type core struct {
		hier *mem.Hierarchy
		env  *interp.Env
		tr   *coreTracer
		// prep memoizes prepared handles per task function, so the per-task
		// dispatch inside a batch carries no map lookup or compile check
		// (batch-of-tasks amortization). Invalidated whenever the env is
		// rebuilt.
		prep map[*ir.Func]*interp.Prepared
	}
	coreEnv := func(ct *coreTracer) *interp.Env {
		env := newEnv(prog, ct)
		env.SetContext(ctx)
		env.SetMaxSteps(cfg.MaxSteps)
		// Fused cache probe: the bytecode VM feeds the hierarchy directly
		// from its memory instructions; the tree oracle keeps using the
		// coreTracer adapter over the same hierarchy (identical events).
		env.SetHierarchy(ct.h)
		return env
	}
	rebuild := func(c *core) {
		c.env = coreEnv(c.tr)
		c.prep = make(map[*ir.Func]*interp.Prepared)
	}
	cores := make([]*core, cfg.Cores)
	for i := range cores {
		h := mem.NewHierarchy(cfg.Hierarchy, l3)
		ct := &coreTracer{h: h}
		cores[i] = &core{hier: h, env: coreEnv(ct), tr: ct, prep: make(map[*ir.Func]*interp.Prepared)}
	}

	tr = &Trace{Workload: w.Name, Decoupled: cfg.Decoupled, Cores: cfg.Cores, NumBatches: len(w.Batches)}

	// runPhase consults the injection hook, then interprets fn on c. Panics
	// are recovered here (not just at the trace boundary) so the supervisor
	// can act on a crashing phase like on any other fault.
	runPhase := func(c *core, task string, fn *ir.Func, args []interp.Value, access bool) (w cpu.PhaseWork, err error) {
		defer fault.Recover(&err, "task-phase")
		if cfg.PhaseHook != nil {
			if herr := cfg.PhaseHook(task, access); herr != nil {
				return cpu.PhaseWork{}, herr
			}
		}
		prep, ok := c.prep[fn]
		if !ok {
			var perr error
			prep, perr = c.env.Prepare(fn)
			if perr != nil {
				return cpu.PhaseWork{}, perr
			}
			c.prep[fn] = prep
		}
		c.env.ResetCounts()
		c.hier.ResetStats()
		if _, cerr := prep.Call(args...); cerr != nil {
			return cpu.PhaseWork{}, cerr
		}
		return cpu.PhaseWork{Counts: c.env.Counts(), Mem: c.hier.Stats}, nil
	}

	// execFaults accumulates contained execute-phase faults (DegradeFull).
	var execFaults []error

	// load tracks accumulated instruction counts per core within the
	// current batch, for the least-loaded placement policy.
	load := make([]int64, cfg.Cores)
	for bi, batch := range w.Batches {
		for i := range load {
			load[i] = 0
		}
		for ti, task := range batch {
			if err := ctx.Err(); err != nil {
				return nil, fault.Wrap(fault.KindTimeout, err)
			}
			ci := ti % cfg.Cores
			if cfg.Place == PlaceLeastLoaded {
				ci = 0
				for k := 1; k < cfg.Cores; k++ {
					if load[k] < load[ci] {
						ci = k
					}
				}
			}
			c := cores[ci]
			fn := w.Module.Func(task.Name)
			if fn == nil {
				return nil, fmt.Errorf("rt: no task function %q", task.Name)
			}
			rec := TaskRecord{Name: task.Name, Core: ci, Batch: bi}
			if acc := w.Access[task.Name]; cfg.Decoupled && acc != nil {
				if kind, q := tr.Quarantined[task.Name]; q {
					// Access variant already quarantined: run coupled.
					rec.Degraded = true
					rec.FaultKind = kind
				} else {
					work, aerr := runPhase(c, task.Name, acc, task.Args, true)
					switch {
					case aerr == nil:
						rec.HasAccess = true
						rec.AccessWork = work
					case ctx.Err() != nil:
						return nil, fault.Wrap(fault.KindTimeout, ctx.Err())
					case cfg.Degrade == DegradeOff:
						return nil, fmt.Errorf("rt: access phase of %s: %w", task.Name, aerr)
					default:
						// Supervise: the access phase stored nothing (purity-
						// verified), so discard it, quarantine the task type's
						// access variant, and run this task coupled. The
						// interpreter may have unwound mid-call; rebuild the
						// core's env rather than reason about its pools.
						kind := fault.ClassOf(aerr)
						if tr.Quarantined == nil {
							tr.Quarantined = make(map[string]string)
						}
						tr.Quarantined[task.Name] = kind
						rec.Degraded = true
						rec.FaultKind = kind
						rebuild(c)
					}
				}
			}
			work, xerr := runPhase(c, task.Name, fn, task.Args, false)
			switch {
			case xerr == nil:
				rec.ExecWork = work
			case ctx.Err() != nil:
				return nil, fault.Wrap(fault.KindTimeout, ctx.Err())
			case cfg.Degrade != DegradeFull:
				return nil, fmt.Errorf("rt: execute phase of %s: %w", task.Name, xerr)
			default:
				// Contain to task granularity, but never mask: the joined
				// fault is returned together with the completed trace.
				rec.Failed = true
				rec.FaultKind = fault.ClassOf(xerr)
				execFaults = append(execFaults, fmt.Errorf("rt: execute phase of %s: %w", task.Name, xerr))
				rebuild(c)
			}
			load[ci] += rec.AccessWork.Counts.Total() + rec.ExecWork.Counts.Total()
			tr.Records = append(tr.Records, rec)
		}
	}
	if len(execFaults) > 0 {
		return tr, errors.Join(execFaults...)
	}
	return tr, nil
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
