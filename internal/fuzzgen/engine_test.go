package fuzzgen

import (
	"testing"

	"dae/internal/fault"
	"dae/internal/interp"
	"dae/internal/ir"
	"dae/internal/lower"
	"dae/internal/passes"

	daepass "dae/internal/dae"
)

// memEvent is one traced memory access: kind (0 load, 1 store, 2 prefetch)
// and byte address.
type memEvent struct {
	kind uint8
	addr int64
}

// eventRecorder captures the full ordered memory-event stream of a run, so
// two engines can be compared event by event rather than by aggregate.
type eventRecorder struct{ events []memEvent }

func (r *eventRecorder) Load(a int64)     { r.events = append(r.events, memEvent{0, a}) }
func (r *eventRecorder) Store(a int64)    { r.events = append(r.events, memEvent{1, a}) }
func (r *eventRecorder) Prefetch(a int64) { r.events = append(r.events, memEvent{2, a}) }

// engineRun executes fn over fresh seeded memory on the bytecode VM, or on
// the tree oracle (interp.NewOracleEnv) when oracle is set, recording every
// observable: final state, the ordered memory-event stream, counts, step
// accounting, and the error (if any).
func engineRun(oracle bool, prog *interp.Program, fn *ir.Func, seed int64, maxSteps int64) (*state, *eventRecorder, interp.Counts, int64, error) {
	rec := &eventRecorder{}
	env := interp.NewEnv(prog, rec)
	if oracle {
		env = interp.NewOracleEnv(prog, rec, nil)
	}
	env.SetMaxSteps(maxSteps)
	st := newState(seed)
	_, err := env.Call(fn, st.args()...)
	return st, rec, env.Counts(), env.Steps(), err
}

// engineDifferential runs fn on the bytecode engine and the tree oracle and
// fails the test unless every observable agrees: identical trace event
// sequences, bit-exact final memory, equal instruction counts and step
// totals, and byte-identical errors (including fault class) when either
// engine faults.
func engineDifferential(t *testing.T, prog *interp.Program, fn *ir.Func, seed int64, maxSteps int64, src string) {
	t.Helper()
	stB, recB, cntB, stepsB, errB := engineRun(false, prog, fn, seed, maxSteps)
	stT, recT, cntT, stepsT, errT := engineRun(true, prog, fn, seed, maxSteps)

	if (errB == nil) != (errT == nil) {
		t.Fatalf("@%s: engines disagree on failure: bytecode=%v tree=%v\nsource:\n%s", fn.Name, errB, errT, src)
	}
	if errB != nil {
		if errB.Error() != errT.Error() || fault.ClassOf(errB) != fault.ClassOf(errT) {
			t.Fatalf("@%s: engines fault differently:\nbytecode: [%s] %v\ntree:     [%s] %v\nsource:\n%s",
				fn.Name, fault.ClassOf(errB), errB, fault.ClassOf(errT), errT, src)
		}
	} else if arr, ok := stB.equal(stT); !ok {
		t.Fatalf("@%s: engines disagree on final memory (array %s)\nsource:\n%s", fn.Name, arr, src)
	}
	if len(recB.events) != len(recT.events) {
		t.Fatalf("@%s: trace lengths differ: bytecode=%d tree=%d\nsource:\n%s",
			fn.Name, len(recB.events), len(recT.events), src)
	}
	for i := range recB.events {
		if recB.events[i] != recT.events[i] {
			t.Fatalf("@%s: trace event %d differs: bytecode=%+v tree=%+v\nsource:\n%s",
				fn.Name, i, recB.events[i], recT.events[i], src)
		}
	}
	if cntB != cntT {
		t.Fatalf("@%s: instruction counts differ:\nbytecode: %+v\ntree:     %+v\nsource:\n%s",
			fn.Name, cntB, cntT, src)
	}
	if stepsB != stepsT {
		t.Fatalf("@%s: step accounting differs: bytecode=%d tree=%d\nsource:\n%s",
			fn.Name, stepsB, stepsT, src)
	}
}

// compileForEngines builds one optimized+DAE module for a seed and returns
// the shared program plus the functions worth differencing (the task and
// every generated access version).
func compileForEngines(t *testing.T, seed int64, src string) (*interp.Program, []*ir.Func) {
	t.Helper()
	mod, err := lower.Compile(src, "fuzz")
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	irf := mod.Func("fuzz")
	if _, err := passes.Optimize(irf); err != nil {
		t.Fatalf("optimize: %v\nsource:\n%s", err, src)
	}
	opts := daepass.Defaults()
	opts.ParamHints = map[string]int64{"n": N, "p": 13, "q": -7}
	results, err := daepass.GenerateModule(mod, opts)
	if err != nil {
		t.Fatalf("generate: %v\nsource:\n%s", err, src)
	}
	fns := []*ir.Func{irf}
	for _, res := range results {
		if res.Access != nil {
			fns = append(fns, res.Access)
		}
		if res.AccessFull != nil {
			fns = append(fns, res.AccessFull)
		}
	}
	return interp.NewProgram(mod), fns
}

// TestEngineDifferentialSeeded is the deterministic regression net for the
// bytecode engine: a fixed block of generator seeds runs the task and its
// access versions on both engines and requires identical traces, outputs,
// counts, steps, and faults. A tight step budget on a second pass checks
// that budget faults land on the same instruction in both engines even when
// the boundary falls inside a superinstruction.
func TestEngineDifferentialSeeded(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(3000 + trial)
		src := New(seed).Task()
		prog, fns := compileForEngines(t, seed, src)
		for _, fn := range fns {
			engineDifferential(t, prog, fn, seed, 4<<20, src)
			// Starve the budget so the run faults mid-flight; the fault
			// position must still agree byte for byte.
			engineDifferential(t, prog, fn, seed, 777, src)
		}
	}
}
