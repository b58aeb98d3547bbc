// Package bench reimplements the paper's seven benchmarks as TaskC
// task-based kernels: LU, Cholesky and FFT (SPLASH2), CG (NAS), LBM and
// libquantum (SPEC CPU2006), and CIGAR (case-injected genetic algorithm).
// Each app provides the task sources, a hand-written "Manual DAE" access
// version (the expert-crafted baseline of §6), deterministic input
// generation, the task batch structure, and a pure-Go reference
// implementation used to verify that the simulated execution computes the
// right answer.
package bench

import (
	"fmt"

	"dae/internal/dae"
	"dae/internal/interp"
	"dae/internal/ir"
	"dae/internal/rt"
)

// Variant selects whose access phases a build wires up.
type Variant int

// Variants.
const (
	// Auto uses the compiler-generated access versions (the contribution).
	Auto Variant = iota
	// Manual uses the hand-written access tasks (the §6 baseline).
	Manual
)

// Built is one freshly constructed, runnable benchmark instance.
type Built struct {
	W       *rt.Workload
	Results map[string]*dae.Result
	Heap    *interp.Heap
	// Verify checks the computed output against the Go reference after the
	// workload has been traced.
	Verify func() error
}

// Refine applies profile-guided prefetch pruning (dae.RefineAccess, the
// paper's §7 future work) to every task's access version, profiling each
// task type on up to perTask representative instances drawn from the
// workload's batches. It returns the number of pruned static prefetches.
// Call before tracing; access versions write nothing, so profiling leaves
// the benchmark data intact.
func (b *Built) Refine(opts dae.RefineOptions, perTask int) (int, error) {
	argSets := make(map[string][][]interp.Value)
	for _, batch := range b.W.Batches {
		for _, t := range batch {
			if len(argSets[t.Name]) < perTask {
				argSets[t.Name] = append(argSets[t.Name], t.Args)
			}
		}
	}
	total := 0
	for name, res := range b.Results {
		sets := argSets[name]
		if res.Access == nil || len(sets) == 0 {
			continue
		}
		n, err := dae.RefineAccess(res, opts, sets...)
		if err != nil {
			return total, fmt.Errorf("refine %s: %w", name, err)
		}
		total += n
	}
	return total, nil
}

// App is one benchmark.
type App struct {
	// Name is the paper's benchmark name.
	Name string
	// Build constructs a fresh instance (new heap, new data) at the app's
	// default evaluation scale.
	Build func(v Variant) (*Built, error)
}

// Apps returns the seven evaluation benchmarks in the paper's order.
func Apps() []App {
	return []App{
		{Name: "LU", Build: func(v Variant) (*Built, error) { return buildLU(v) }},
		{Name: "Cholesky", Build: func(v Variant) (*Built, error) { return buildCholesky(v) }},
		{Name: "FFT", Build: func(v Variant) (*Built, error) { return buildFFT(v) }},
		{Name: "LBM", Build: func(v Variant) (*Built, error) { return buildLBM(v) }},
		{Name: "LibQ", Build: func(v Variant) (*Built, error) { return buildLibQ(v) }},
		{Name: "Cigar", Build: func(v Variant) (*Built, error) { return buildCigar(v) }},
		{Name: "CG", Build: func(v Variant) (*Built, error) { return buildCG(v) }},
	}
}

// AppByName returns the named app.
func AppByName(name string) (App, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("bench: unknown app %q", name)
}

// OptionsHook, when non-nil, adjusts the access-generation options of every
// subsequent Build call. It exists for the ablation benchmarks (e.g. forcing
// PrefetchStores or disabling CFG simplification on a full app build); the
// evaluation harness leaves it nil.
var OptionsHook func(*dae.Options)

// buildCommon compiles src, generates access versions with hints, and wires
// the chosen variant's access map. Manual access functions are plain void
// functions named "<task>_manual".
func buildCommon(name, src string, hints map[string]int64, v Variant) (*rt.Workload, map[string]*dae.Result, error) {
	opts := dae.Defaults()
	opts.ParamHints = hints
	if OptionsHook != nil {
		OptionsHook(&opts)
	}
	w, results, err := rt.BuildWorkload(name, src, opts)
	if err != nil {
		return nil, nil, err
	}
	if v == Manual {
		w.Access = manualAccess(w.Module)
	}
	return w, results, nil
}

// ManualAccess returns the hand-written access versions of b's module,
// keyed by task name: the access map a Manual build wires up. Every build
// compiles them alongside the compiler's, so one Auto build can trace the
// coupled (no access map), manual-DAE and compiler-DAE (b.W.Access) runs.
func (b *Built) ManualAccess() map[string]*ir.Func { return manualAccess(b.W.Module) }

// manualAccess maps each task of mod to its "<task>_manual" function.
func manualAccess(mod *ir.Module) map[string]*ir.Func {
	access := make(map[string]*ir.Func)
	for _, task := range mod.Tasks() {
		if man := mod.Func(task.Name + "_manual"); man != nil {
			access[task.Name] = man
		}
	}
	return access
}

// lcg is a small deterministic generator for benchmark inputs.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 17
}

// float in [0,1)
func (l *lcg) float() float64 { return float64(l.next()%(1<<30)) / float64(1<<30) }

// intn in [0,n)
func (l *lcg) intn(n int) int { return int(l.next() % uint64(n)) }

func approxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if a > m {
		m = a
	}
	if -a > m {
		m = -a
	}
	if b > m {
		m = b
	}
	if -b > m {
		m = -b
	}
	return d <= tol*m
}
