package interp

import (
	"testing"

	"dae/internal/lower"
	"dae/internal/mem"
	"dae/internal/passes"
)

// benchmark kernels measuring the interpreter's throughput, with and without
// cache tracing — the figure that bounds how large the evaluation inputs can
// be.

const benchKernel = `
task daxpy(float Y[n], float X[n], int n, float a, int reps) {
	for (int r = 0; r < reps; r++) {
		for (int i = 0; i < n; i++) {
			Y[i] = Y[i] + a * X[i];
		}
	}
}
`

func setupBench(b *testing.B, optimize bool) (*Env, func()) {
	b.Helper()
	return setupBenchOn(b, optimize, func(p *Program) *Env { return NewEnv(p, nil) })
}

// setupBenchOn is setupBench with the Env built by newEnv.
func setupBenchOn(b *testing.B, optimize bool, newEnv func(*Program) *Env) (*Env, func()) {
	b.Helper()
	m, err := lower.Compile(benchKernel, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if optimize {
		if _, err := passes.OptimizeModule(m); err != nil {
			b.Fatal(err)
		}
	}
	h := NewHeap()
	y := h.AllocFloat("Y", 4096)
	x := h.AllocFloat("X", 4096)
	env := newEnv(NewProgram(m))
	f := m.Func("daxpy")
	call := func() {
		if _, err := env.Call(f, Ptr(y), Ptr(x), Int(4096), Float(1.5), Int(4)); err != nil {
			b.Fatal(err)
		}
	}
	return env, call
}

// BenchmarkInterpDaxpy measures raw interpreter speed (no tracer) on
// optimized SSA code; ops/sec = instructions retired per wall second.
func BenchmarkInterpDaxpy(b *testing.B) {
	env, call := setupBench(b, true)
	call() // warm the compilation cache
	env.ResetCounts()
	call()
	perCall := env.Counts().Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.StopTimer()
	b.ReportMetric(float64(perCall)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpDaxpyUnoptimized shows the cost of interpreting
// alloca-based (pre-mem2reg) code.
func BenchmarkInterpDaxpyUnoptimized(b *testing.B) {
	_, call := setupBench(b, false)
	call()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// countingTracer is the cheapest possible tracer, to isolate dispatch cost.
type countingTracer struct{ n int64 }

func (t *countingTracer) Load(int64)     { t.n++ }
func (t *countingTracer) Store(int64)    { t.n++ }
func (t *countingTracer) Prefetch(int64) { t.n++ }

// BenchmarkInterpDaxpyTraced measures the overhead of the memory-event
// tracer interface.
func BenchmarkInterpDaxpyTraced(b *testing.B) {
	env, call := setupBench(b, true)
	tr := &countingTracer{}
	env.SetTracer(tr)
	call()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// benchEngines runs the same daxpy body on the register-bytecode VM
// (arm "bytecode") and on the tree oracle from NewOracleEnv (arm "tree"),
// so a single `-bench Dispatch` invocation compares them under identical
// conditions. Both retire the same component-op stream (that is the parity
// contract), so Minstr/s differences are pure dispatch cost.
func benchEngines(b *testing.B, setup func(env *Env)) {
	for _, arm := range []struct {
		name   string
		newEnv func(*Program) *Env
	}{
		{"bytecode", func(p *Program) *Env { return NewEnv(p, nil) }},
		{"tree", func(p *Program) *Env { return NewOracleEnv(p, nil, nil) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			env, call := setupBenchOn(b, true, arm.newEnv)
			if setup != nil {
				setup(env)
			}
			call() // warm the compilation cache and frame pool
			env.ResetCounts()
			call()
			perCall := env.Counts().Total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call()
			}
			b.StopTimer()
			b.ReportMetric(float64(perCall)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
		})
	}
}

// BenchmarkDispatch measures raw per-op dispatch speed of both engines with
// no memory-event consumer installed.
func BenchmarkDispatch(b *testing.B) { benchEngines(b, nil) }

// BenchmarkDispatchTraced routes memory events through the Tracer interface,
// the configuration the rt collection pipeline used before fused probes.
func BenchmarkDispatchTraced(b *testing.B) {
	benchEngines(b, func(env *Env) { env.SetTracer(&countingTracer{}) })
}

// hierTracer adapts the Tracer interface onto a hierarchy, mirroring the rt
// pipeline's per-core adapter. The tree engine consumes events through it;
// the bytecode engine bypasses it via the fused probes when a hierarchy is
// installed.
type hierTracer struct{ h *mem.Hierarchy }

func (t *hierTracer) Load(a int64)     { t.h.Access(a, mem.Load) }
func (t *hierTracer) Store(a int64)    { t.h.Access(a, mem.Store) }
func (t *hierTracer) Prefetch(a int64) { t.h.Access(a, mem.Prefetch) }

// BenchmarkDispatchHierarchy installs a real cache hierarchy the way the
// collection pipeline does — hierarchy plus tracer adapter — so both engines
// simulate the same event stream: the bytecode engine through its fused
// cache probes, the tree engine through the Tracer interface.
func BenchmarkDispatchHierarchy(b *testing.B) {
	benchEngines(b, func(env *Env) {
		cfg := mem.EvalHierarchy()
		h := mem.NewHierarchy(cfg, mem.NewCache(cfg.L3))
		env.SetTracer(&hierTracer{h: h})
		env.SetHierarchy(h)
	})
}

// BenchmarkEnvCallAllocs measures steady-state allocations of Env.Call with
// frame reuse: after warmup, repeated calls must not grow the heap (the
// register file, phi scratch and argument buffers all come from the Env's
// frame pool). Run with -benchmem; allocs/op is the regression signal.
func BenchmarkEnvCallAllocs(b *testing.B) {
	_, call := setupBench(b, true)
	call() // warm the compilation cache and the frame pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// BenchmarkEnvCallAllocsAlloca covers the unoptimized (pre-mem2reg) path
// whose frames carry alloca stack segments, exercising their reuse.
func BenchmarkEnvCallAllocsAlloca(b *testing.B) {
	_, call := setupBench(b, false)
	call()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}

// callKernel keeps a function call inside the inner loop; compiled without
// the optimizer (no inlining), every iteration takes the opCall path, so the
// benchmark isolates per-call frame acquisition.
const callKernel = `
float fma1(float a, float x, float y) {
	return y + a * x;
}
task daxpy_call(float Y[n], float X[n], int n, float a, int reps) {
	for (int r = 0; r < reps; r++) {
		for (int i = 0; i < n; i++) {
			Y[i] = fma1(a, X[i], Y[i]);
		}
	}
}
`

// BenchmarkEnvCallAllocsNestedCalls measures allocations when the hot loop
// performs an IR-level call per iteration (4096*4 opCall frames per Env.Call).
func BenchmarkEnvCallAllocsNestedCalls(b *testing.B) {
	m, err := lower.Compile(callKernel, "bench")
	if err != nil {
		b.Fatal(err)
	}
	h := NewHeap()
	y := h.AllocFloat("Y", 4096)
	x := h.AllocFloat("X", 4096)
	env := NewEnv(NewProgram(m), nil)
	f := m.Func("daxpy_call")
	call := func() {
		if _, err := env.Call(f, Ptr(y), Ptr(x), Int(4096), Float(1.5), Int(4)); err != nil {
			b.Fatal(err)
		}
	}
	call()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
}
